package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/cluster"
	"biaslab/internal/core"
	"biaslab/internal/retry"
	"biaslab/internal/server"
)

// runnerCache returns a per-worker runner factory: each simulated worker
// process keeps its own compile/link caches, like a real fleet.
func runnerCache() func(bench.Size) *core.Runner {
	var mu sync.Mutex
	runners := map[bench.Size]*core.Runner{}
	return func(size bench.Size) *core.Runner {
		mu.Lock()
		defer mu.Unlock()
		r, ok := runners[size]
		if !ok {
			r = core.NewRunner(size)
			runners[size] = r
		}
		return r
	}
}

func newClusterServer(t *testing.T, cfg cluster.CoordinatorConfig) (*server.Server, *cluster.Coordinator) {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	if cfg.Runner == nil {
		cfg.Runner = srv.Runner
	}
	coord := cluster.NewCoordinator(cfg)
	srv.SetCluster(coord, func() string { return coord.MetricsSnapshot().Render() })
	return srv, coord
}

// startWorker runs an in-process worker against a transport until the
// test ends (or the returned cancel is called).
func startWorker(t *testing.T, id string, tr cluster.Transport) context.CancelFunc {
	t.Helper()
	w := cluster.NewWorker(cluster.WorkerConfig{
		ID:        id,
		Slots:     2,
		Runner:    runnerCache(),
		Transport: tr,
		Retry:     retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// waitWorkers blocks until n workers have joined — submitting before the
// fleet registers would (correctly) degrade the job to local execution,
// which is not what these tests are probing.
func waitWorkers(t *testing.T, coord *cluster.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if snap := coord.MetricsSnapshot(); snap.WorkersAlive >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("fleet of %d never assembled", n)
}

func waitJob(t *testing.T, srv *server.Server, id string) *server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

// localBytes computes the spec's result through the ordinary single-node
// path — the reference every cluster result must match byte for byte.
func localBytes(t *testing.T, spec server.JobSpec) []byte {
	t.Helper()
	canonical, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	size, _ := bench.ParseSize(canonical.Size)
	res, err := server.Execute(context.Background(), core.NewRunner(size), canonical, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := server.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func submitAndFetch(t *testing.T, srv *server.Server, spec server.JobSpec) []byte {
	t.Helper()
	sub, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, srv, sub.ID)
	if st.State != server.StateDone {
		t.Fatalf("job ended %s: %+v", st.State, st.Error)
	}
	raw, ok, err := srv.Result(sub.Key)
	if err != nil || !ok {
		t.Fatalf("result missing: ok=%v err=%v", ok, err)
	}
	return raw
}

// TestClusterByteIdentity is the tentpole's core guarantee: every
// shardable kind, fanned out over a two-worker fleet, stores exactly the
// bytes the single-node path produces.
func TestClusterByteIdentity(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  500 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
	})
	startWorker(t, "w1", cluster.LocalTransport{C: coord})
	startWorker(t, "w2", cluster.LocalTransport{C: coord})
	waitWorkers(t, coord, 2)

	specs := cluster.ShardableSpecs
	for i, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%d-%s", i, spec.Kind), func(t *testing.T) {
			raw := submitAndFetch(t, srv, spec)
			if local := localBytes(t, spec); !bytes.Equal(raw, local) {
				t.Errorf("cluster result differs from single-node result\ncluster: %s\nlocal:   %s", raw, local)
			}
		})
	}
	snap := coord.MetricsSnapshot()
	if snap.JobsSharded != uint64(len(specs)) {
		t.Errorf("JobsSharded = %d, want %d", snap.JobsSharded, len(specs))
	}
	if snap.PointsIngested == 0 {
		t.Error("no points flowed through the cluster")
	}
	if snap.MergeConflicts != 0 {
		t.Errorf("MergeConflicts = %d, want 0", snap.MergeConflicts)
	}
}

// flakyTransport simulates a worker crash without fault-injection tags: a
// fixed number of heartbeats succeed, then every protocol call fails
// forever — the worker process is effectively gone, without a graceful
// leave, exactly like a kill.
type flakyTransport struct {
	inner  cluster.Transport
	mu     sync.Mutex
	beats  int
	budget int
}

func newFlakyTransport(inner cluster.Transport, budget int) *flakyTransport {
	return &flakyTransport{inner: inner, budget: budget}
}

func (f *flakyTransport) dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.beats++
	return f.beats > f.budget
}

func (f *flakyTransport) Join(ctx context.Context, req cluster.JoinRequest) (cluster.JoinResponse, error) {
	return f.inner.Join(ctx, req)
}

func (f *flakyTransport) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (cluster.HeartbeatResponse, error) {
	if f.dead() {
		return cluster.HeartbeatResponse{}, errors.New("connection refused (simulated crash)")
	}
	return f.inner.Heartbeat(ctx, req)
}

func (f *flakyTransport) Leave(ctx context.Context, req cluster.LeaveRequest) error {
	return errors.New("connection refused (simulated crash)")
}

// TestClusterWorkerCrashRecovers is the chaos acceptance test: kill a
// worker mid-sweep (its heartbeats stop cold, no leave), and the merged
// result must still be byte-identical to a single-node run, with the
// coordinator's metrics showing the failure machinery engaged — leases
// expired and shards retried.
func TestClusterWorkerCrashRecovers(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:   250 * time.Millisecond,
		Heartbeat:  25 * time.Millisecond,
		StealAfter: time.Hour, // force recovery through lease expiry, not stealing
		Backoff:    retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	// w1 crashes after three heartbeats — mid-sweep, holding leases.
	startWorker(t, "w1", newFlakyTransport(cluster.LocalTransport{C: coord}, 3))
	startWorker(t, "w2", cluster.LocalTransport{C: coord})
	waitWorkers(t, coord, 2)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("result after worker crash differs from single-node result")
	}
	snap := coord.MetricsSnapshot()
	if snap.LeasesExpired == 0 {
		t.Error("LeasesExpired = 0: the crashed worker's leases never expired")
	}
	if snap.ShardsRetried == 0 {
		t.Error("ShardsRetried = 0: no shard was requeued after the crash")
	}
	if snap.MergeConflicts != 0 {
		t.Errorf("MergeConflicts = %d, want 0", snap.MergeConflicts)
	}
}

// TestClusterFleetDiesDegradesToLocal: every worker dies mid-job; the
// coordinator finishes the remaining shards inline through its own
// runner, and the result is still byte-identical.
func TestClusterFleetDiesDegradesToLocal(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  150 * time.Millisecond,
		Heartbeat: 25 * time.Millisecond,
		Backoff:   retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	startWorker(t, "w1", newFlakyTransport(cluster.LocalTransport{C: coord}, 2))
	waitWorkers(t, coord, 1)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("degraded result differs from single-node result")
	}
	if snap := coord.MetricsSnapshot(); snap.ShardsLocal == 0 {
		t.Error("ShardsLocal = 0: the coordinator never took over")
	}
}

// TestClusterNoWorkersRunsLocally: with an attached coordinator but no
// fleet, the server's ordinary local path runs the job — same bytes, one
// degraded-jobs tick.
func TestClusterNoWorkersRunsLocally(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  200 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
	})
	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 512}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("locally degraded result differs from single-node result")
	}
	if snap := coord.MetricsSnapshot(); snap.JobsDegraded != 1 {
		t.Errorf("JobsDegraded = %d, want 1", snap.JobsDegraded)
	}
}

// TestClusterHTTPTransport drives the protocol over real HTTP: the
// coordinator's handlers on one side, Dial's retrying client on the
// other.
func TestClusterHTTPTransport(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  500 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
	})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	tr := cluster.Dial(ts.URL, nil, retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond})
	startWorker(t, "w-http", tr)
	waitWorkers(t, coord, 1)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 512}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("HTTP-transport result differs from single-node result")
	}
	if snap := coord.MetricsSnapshot(); snap.PointsIngested == 0 {
		t.Error("no points delivered over HTTP")
	}
}

// TestJoinReadinessProbe: a worker whose /readyz answers 503 (draining)
// is refused membership — the readiness split's cluster consumer.
func TestJoinReadinessProbe(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer draining.Close()
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	defer ready.Close()

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Runner:     runnerCache(),
		ProbeReady: cluster.ProbeReadyHTTP(nil),
	})
	if _, err := coord.Join(cluster.JoinRequest{Worker: "draining", Addr: draining.URL}); !errors.Is(err, cluster.ErrNotReady) {
		t.Fatalf("draining worker join: got %v, want ErrNotReady", err)
	}
	if _, err := coord.Join(cluster.JoinRequest{Worker: "ready", Addr: ready.URL}); err != nil {
		t.Fatalf("ready worker join: %v", err)
	}
}
