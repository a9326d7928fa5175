// Package cluster shards measurement jobs across a fleet of worker
// biaslabd processes, designed failure-first: every mechanism assumes
// workers crash, heartbeats drop, and shards stall.
//
// The topology is one coordinator plus any number of workers. The
// protocol is pull-model — workers dial the coordinator, never the other
// way around (the only exception is an optional readiness probe at join):
//
//   - A worker joins (POST /v1/cluster/join) and is given an epoch, the
//     lease TTL, and the heartbeat interval.
//   - The worker heartbeats (POST /v1/cluster/heartbeat) on the interval.
//     One heartbeat does three jobs at once: it renews the leases on the
//     shards the worker holds, delivers completed points and shard
//     results, and picks up new shard assignments.
//   - A missed lease marks the worker suspect; shards whose every leased
//     copy has expired are requeued with exponential backoff plus
//     deterministic jitter. A worker silent for several TTLs is dropped.
//   - When a job is nearly complete and a straggler shard's sole copy has
//     been in flight too long, an idle worker steals a second copy. The
//     first completed copy wins; duplicates are safe because every point
//     is a pure function of its spec, and the coordinator asserts exactly
//     that: a duplicate delivery must be byte-identical to the merged
//     copy, and a mismatch fails the job loudly as a determinism
//     violation rather than silently picking one.
//
// Correctness rests on the journal, not the protocol. Planner and workers
// take a job's points and checkpoint keys from the one point plan the
// single-node path runs (server.PointPlan), and the coordinator merges
// worker-measured points into the job's ordinary checkpoint journal — the
// same file a single-node run checkpoints into. The final result is then assembled by replaying that
// journal through the ordinary single-node execution path, which makes
// zero new measurements. Cluster output is therefore byte-identical to
// single-node output by construction, a cluster job resumes across
// coordinator restarts exactly like a single-node job resumes across
// daemon restarts, and when zero workers are alive the coordinator
// degrades gracefully to local execution over the very same journal.
package cluster

import (
	"encoding/json"
	"errors"

	"biaslab/internal/server"
)

// Protocol errors.
var (
	// ErrUnknownWorker rejects a heartbeat from a worker the coordinator
	// does not know — never joined, dropped as dead, or joined under an
	// earlier epoch. The worker's remedy is to rejoin.
	ErrUnknownWorker = errors.New("cluster: unknown worker (rejoin required)")
	// ErrNotReady rejects a join whose readiness probe failed.
	ErrNotReady = errors.New("cluster: worker not ready")
)

// JoinRequest announces a worker to the coordinator.
type JoinRequest struct {
	// Worker is the worker's self-chosen stable identity.
	Worker string `json:"worker"`
	// Addr is the worker daemon's base URL (http://host:port), used only
	// for the optional /readyz probe at join time.
	Addr string `json:"addr,omitempty"`
	// Slots is how many shards the worker will run concurrently.
	Slots int `json:"slots"`
}

// JoinResponse tells a joined worker the protocol parameters.
type JoinResponse struct {
	// Epoch identifies this registration. A heartbeat carrying a stale
	// epoch is rejected with ErrUnknownWorker, so a worker that was
	// dropped and rejoined cannot renew leases it no longer holds.
	Epoch int64 `json:"epoch"`
	// LeaseTTLMs is how long a shard lease lives without renewal.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
	// HeartbeatMs is the interval the worker should heartbeat on.
	HeartbeatMs int64 `json:"heartbeat_ms"`
}

// PointRecord is one completed measurement point, streamed from worker to
// coordinator inside a heartbeat. Val is the point's canonical JSON
// encoding, produced by the same struct marshalling the single-node
// checkpoint path uses; the coordinator stores it verbatim.
type PointRecord struct {
	Job   string          `json:"job"`
	Shard string          `json:"shard"`
	Index int             `json:"index"`
	Key   string          `json:"key"`
	Val   json.RawMessage `json:"val"`
}

// ShardResult reports a shard's terminal outcome.
type ShardResult struct {
	Job   string `json:"job"`
	Shard string `json:"shard"`
	// Error is empty on success. A failed shard is requeued by the
	// coordinator (with backoff) up to its attempt budget.
	Error string `json:"error,omitempty"`
}

// HeartbeatRequest is the worker's periodic message: lease renewal,
// result delivery, and assignment fetch in one round trip.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Epoch  int64  `json:"epoch"`
	// Held lists the shard ids the worker is still executing; the
	// coordinator renews their leases.
	Held []string `json:"held,omitempty"`
	// Points are completed measurements not yet acknowledged. Delivery is
	// at-least-once: the worker resends until a heartbeat succeeds, and
	// the coordinator deduplicates by (job, index).
	Points []PointRecord `json:"points,omitempty"`
	// Done are shard outcomes not yet acknowledged.
	Done []ShardResult `json:"done,omitempty"`
}

// ShardAssignment hands a shard to a worker.
type ShardAssignment struct {
	Job   string `json:"job"`
	Shard string `json:"shard"`
	// Spec is the job's canonical spec; the worker derives the full point
	// enumeration from it and measures only Indices.
	Spec server.JobSpec `json:"spec"`
	// Audit is the submitting coordinator's audit verdict for the job's
	// spec, inherited verbatim by every shard: workers never re-audit an
	// assignment, so a spec the coordinator accepted (clean, warned, or
	// guilty-but-suppressed) executes on the whole fleet under the
	// coordinator's judgment.
	Audit []server.AuditFinding `json:"audit,omitempty"`
	// Indices are the positions (into the planner's point enumeration)
	// this shard covers.
	Indices []int `json:"indices"`
	// Stolen marks a work-stealing copy of a straggler shard.
	Stolen bool `json:"stolen,omitempty"`
}

// HeartbeatResponse carries the coordinator's reply.
type HeartbeatResponse struct {
	// Assignments are new shards for the worker to start.
	Assignments []ShardAssignment `json:"assignments,omitempty"`
	// Revoked lists held shards whose lease the coordinator no longer
	// honors (reassigned after expiry, or the job ended); the worker
	// cancels them.
	Revoked []string `json:"revoked,omitempty"`
	// LeaseTTLMs restates the lease TTL so a worker can adapt.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
}

// LeaveRequest announces a graceful departure.
type LeaveRequest struct {
	Worker string `json:"worker"`
	Epoch  int64  `json:"epoch"`
}

// WorkerStatus is one worker's row in the status listing.
type WorkerStatus struct {
	Worker string `json:"worker"`
	State  string `json:"state"` // alive | suspect
	Slots  int    `json:"slots"`
	Held   int    `json:"held"`
}

// StatusResponse is GET /v1/cluster/status.
type StatusResponse struct {
	Workers []WorkerStatus  `json:"workers"`
	Jobs    int             `json:"jobs"`
	Metrics MetricsSnapshot `json:"metrics"`
}
