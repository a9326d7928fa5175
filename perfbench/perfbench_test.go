package main

import (
	"math"
	"reflect"
	"testing"

	"biaslab/internal/server"
)

// TestCountersRepeat runs each workload twice at one seed, on small inputs,
// and requires bit-identical exact counters and result digests between the
// two runs and between each run's untraced and traced pass, and identical
// per-layer call counts (compiles, links, loads, runs, co-runs, audits,
// journal records) between the two runs' traced passes. These are the
// host-independent counts a CI job may gate on.
func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	stored, clients := daemonInputs(defaultSeed)
	for c := range clients {
		clients[c] = clients[c][:4]
	}
	workloads := map[string]func(o options) (workload, error){
		"env-sweep": func(o options) (workload, error) {
			return newLocal([]server.JobSpec{{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Step: 512}}), nil
		},
		"randomize-corun": func(o options) (workload, error) {
			return newLocal([]server.JobSpec{{Kind: server.KindRandomize, Size: "test", Bench: "sjeng", N: 6, CoRandom: true, Seed: 3}}), nil
		},
		"daemon-mixed": func(o options) (workload, error) {
			return newDaemonMixed(o, stored, clients)
		},
	}
	for name, build := range workloads {
		t.Run(name, func(t *testing.T) {
			var first, firstLayers map[string]uint64
			var firstDigests map[string]string
			for run := 0; run < 2; run++ {
				w, err := build(options{workload: name, seed: defaultSeed, work: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				plain, err := w.pass(false)
				if err != nil {
					t.Fatal(err)
				}
				traced, err := w.pass(true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain.counts, traced.counts) {
					t.Errorf("run %d: traced counters %v differ from untraced %v", run, traced.counts, plain.counts)
				}
				digests := map[string]string{}
				for _, p := range []*passResult{plain, traced} {
					for _, op := range p.ops {
						if op.err != nil {
							t.Fatalf("run %d: %s: %v", run, op.label, op.err)
						}
						if d, ok := digests[op.label]; ok && d != op.digest {
							t.Errorf("run %d: %s: traced and untraced digests differ", run, op.label)
						}
						digests[op.label] = op.digest
					}
				}
				layers := layerCounts(traced.layers)
				if run == 0 {
					first, firstLayers, firstDigests = plain.counts, layers, digests
					continue
				}
				if !reflect.DeepEqual(layers, firstLayers) {
					t.Errorf("layer counts differ between runs:\n%v\n%v", firstLayers, layers)
				}
				if !reflect.DeepEqual(plain.counts, first) {
					t.Errorf("counters differ between runs:\n%v\n%v", first, plain.counts)
				}
				if !reflect.DeepEqual(digests, firstDigests) {
					t.Errorf("result digests differ between runs")
				}
			}
			if first["core.measurements"] == 0 || first["ops"] == 0 {
				t.Errorf("counters show no work: %v", first)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := quantile([]float64{5, 5, 5, 5}, 0.9); !near(got, 5) {
		t.Errorf("constant sample: p90 = %v, want 5", got)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); !near(got, 2) {
		t.Errorf("symmetric sample: median = %v, want 2", got)
	}
	if got := quantile([]float64{7}, 0.9); !near(got, 7) {
		t.Errorf("one sample: p90 = %v, want 7", got)
	}
	// Two separated clusters of equal size: the median sits between them.
	xs := []float64{1, 1.1, 0.9, 1, 10, 10.1, 9.9, 10}
	if got := quantile(xs, 0.5); got < 4 || got > 7 {
		t.Errorf("two clusters: median = %v, want between the clusters", got)
	}
	if got := quantile(xs, 0.9); got < 9 || got > 10.1 {
		t.Errorf("two clusters: p90 = %v, want in the upper cluster", got)
	}
}
