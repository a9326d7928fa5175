package cluster

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/channels"
	"biaslab/internal/core"
	"biaslab/internal/journal"
	"biaslab/internal/server"
)

// ShardableSpecs holds one spec per shardable job kind, plus the
// co-runner-randomized variant of randomize, at size test. The planner
// test and the cluster byte-identity test both run this one table, and
// TestShardableSpecsCoverEveryKind keeps it complete.
var ShardableSpecs = []server.JobSpec{
	{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256},
	{Kind: server.KindSweepLink, Size: "test", Bench: "hmmer", Machine: "p4", Orders: 4},
	{Kind: server.KindSweepTenant, Size: "test", Bench: "sjeng", Machine: "core2"},
	{Kind: server.KindRandomize, Size: "test", Bench: "hmmer", Machine: "p4", N: 6},
	{Kind: server.KindRandomize, Size: "test", Bench: "sjeng", Machine: "core2", N: 6, CoRandom: true},
	{Kind: server.KindSweepPad, Size: "test", Bench: "perlbench", Machine: "p4"},
	{Kind: server.KindSweepBase, Size: "test", Bench: "perlbench", Machine: "p4"},
}

// TestShardableSpecsCoverEveryKind: every job kind server.Shardable
// accepts — each channel's sweep kind and the non-channel kinds — has a
// row in ShardableSpecs, and every row is shardable.
func TestShardableSpecsCoverEveryKind(t *testing.T) {
	kinds := []string{server.KindRun, server.KindRandomize, server.KindExperiment}
	for _, ch := range channels.All() {
		kinds = append(kinds, ch.JobKind)
	}
	covered := map[string]bool{}
	for _, spec := range ShardableSpecs {
		if !server.Shardable(spec) {
			t.Errorf("table row %+v is not shardable", spec)
		}
		covered[spec.Kind] = true
	}
	for _, kind := range kinds {
		if server.Shardable(server.JobSpec{Kind: kind}) && !covered[kind] {
			t.Errorf("shardable kind %q has no row in ShardableSpecs", kind)
		}
	}
}

// TestPointsMatchSingleNodeJournal is the planner's core contract: for
// every shardable kind, the planned point keys are exactly the keys a
// single-node checkpointed run journals. If these ever diverge, cluster
// workers would measure points the merge cannot place — so the test runs
// the real single-node path and compares.
func TestPointsMatchSingleNodeJournal(t *testing.T) {
	for _, spec := range ShardableSpecs {
		spec := spec
		t.Run(spec.Kind, func(t *testing.T) {
			canonical, err := spec.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			size, _ := bench.ParseSize(canonical.Size)
			r := core.NewRunner(size)
			points, err := Points(r, canonical)
			if err != nil {
				t.Fatal(err)
			}
			if len(points) == 0 {
				t.Fatal("planner produced no points")
			}
			jn, err := journal.Open(filepath.Join(t.TempDir(), "job.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer jn.Close()
			if _, err := server.Execute(context.Background(), r, canonical, jn, nil); err != nil {
				t.Fatal(err)
			}
			unique := map[string]bool{}
			for _, p := range points {
				unique[p.Key] = true
				if _, ok := jn.Raw(p.Key); !ok {
					t.Errorf("planned key %q not journalled by the single-node run", p.Key)
				}
			}
			if jn.Len() != len(unique) {
				t.Errorf("journal has %d keys, planner %d unique keys", jn.Len(), len(unique))
			}
		})
	}
}

// TestPointKeyLiterals pins the checkpoint key text of every shardable
// kind: the point count and the first and last key at size test. The
// planner-vs-journal test above would still pass if a change moved key
// text on both sides at once, but journals written by older binaries
// would then stop resuming. A deliberate key change must update these
// literals and say so.
func TestPointKeyLiterals(t *testing.T) {
	for _, tc := range []struct {
		spec        server.JobSpec
		n           int
		first, last string
	}{
		{server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}, 17,
			"env/hmmer/p4/gcc -O2 env=8B",
			"env/hmmer/p4/gcc -O2 env=4096B"},
		{server.JobSpec{Kind: server.KindSweepPad, Size: "test", Bench: "perlbench", Machine: "p4"}, 87,
			"pad/perlbench/p4/gcc -O2 env=512B",
			"pad/perlbench/p4/gcc -O2 env=512B pad=32768"},
		{server.JobSpec{Kind: server.KindSweepBase, Size: "test", Bench: "perlbench", Machine: "p4"}, 24,
			"base/perlbench/p4/gcc -O2 env=512B base=0x100000",
			"base/perlbench/p4/gcc -O2 env=512B base=0x108000"},
		{server.JobSpec{Kind: server.KindSweepLink, Size: "test", Bench: "hmmer", Machine: "p4", Orders: 4}, 6,
			"link/hmmer/p4/gcc -O2 env=512B link=[0 1 2]",
			"link/hmmer/p4/gcc -O2 env=512B link=[2 1 0]"},
		{server.JobSpec{Kind: server.KindSweepTenant, Size: "test", Bench: "sjeng", Machine: "core2"}, 7,
			"tenant/sjeng/core2/gcc -O2 env=512B",
			"tenant/sjeng/core2/gcc -O2 env=512B corun=sjeng:O2/q4096"},
		{server.JobSpec{Kind: server.KindRandomize, Size: "test", Bench: "hmmer", Machine: "p4", N: 6}, 6,
			"rand/hmmer/p4/gcc -O2 env=3358B link=[0 1 2] pad=116",
			"rand/hmmer/p4/gcc -O2 env=3480B link=[1 2 0] pad=160"},
		{server.JobSpec{Kind: server.KindRandomize, Size: "test", Bench: "sjeng", Machine: "core2", N: 6, CoRandom: true}, 6,
			"rand/sjeng/core2/gcc -O2 env=3358B link=[0 2 3 1]",
			"rand/sjeng/core2/gcc -O2 env=1817B link=[1 0 3 2] pad=120 corun=milc:O2/q4096"},
	} {
		canonical, err := tc.spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		points, err := Points(core.NewRunner(bench.SizeTest), canonical)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != tc.n {
			t.Errorf("%s: %d points, want %d", tc.spec.Kind, len(points), tc.n)
			continue
		}
		if first, last := points[0].Key, points[len(points)-1].Key; first != tc.first || last != tc.last {
			t.Errorf("%s keys moved:\ngot  %q .. %q\nwant %q .. %q", tc.spec.Kind, first, last, tc.first, tc.last)
		}
	}
}

// TestPointsRejectsUnshardable: run and experiment jobs have no point
// enumeration.
func TestPointsRejectsUnshardable(t *testing.T) {
	r := core.NewRunner(bench.SizeTest)
	if _, err := Points(r, server.JobSpec{Kind: server.KindRun, Size: "test", Bench: "hmmer", Machine: "p4"}); err == nil {
		t.Fatal("planner accepted a run job")
	}
}

// TestExecuteShardRejectsOutOfRangeIndex: shard indices arrive over the
// wire, so an index outside the job's plan is an error, not a panic, and
// nothing is emitted for it.
func TestExecuteShardRejectsOutOfRangeIndex(t *testing.T) {
	spec, err := server.JobSpec{Kind: server.KindSweepLink, Size: "test", Bench: "hmmer", Machine: "p4", Orders: 1}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	emit := func(int, string, json.RawMessage) error {
		t.Error("emitted a point for an out-of-range index")
		return nil
	}
	for _, i := range []int{-1, 3} {
		if err := ExecuteShard(context.Background(), core.NewRunner(bench.SizeTest), spec, "s00", []int{i}, emit); err == nil {
			t.Errorf("index %d: no error", i)
		}
	}
}

// TestPlanShards: grouping is in order, bounded, and exhaustive.
func TestPlanShards(t *testing.T) {
	shards := planShards("abcdef0123456789", []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 4)
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8}}
	for i, sh := range shards {
		if len(sh) != len(want[i]) {
			t.Fatalf("shard %d has %d points, want %d", i, len(sh), len(want[i]))
		}
		for j, idx := range sh {
			if idx != want[i][j] {
				t.Fatalf("shard %d point %d = %d, want %d", i, j, idx, want[i][j])
			}
		}
	}
	if id := shardID("abcdef0123456789", 2); id != "abcdef012345-s02" {
		t.Fatalf("shardID = %q", id)
	}
}
