package biaslab_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each iteration regenerates the artifact from scratch (compile → link →
// load → simulate → analyze), so `go test -bench=.` is the reproduction
// harness: its output includes the rendered artifacts on the first
// iteration of each benchmark.
//
// Workload size defaults to "test" so the harness completes quickly; set
// BIASLAB_BENCH_SIZE=small (or ref) for the paper-scale runs recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"os"
	"testing"

	"biaslab"
)

func benchSize() biaslab.Size {
	switch os.Getenv("BIASLAB_BENCH_SIZE") {
	case "small":
		return biaslab.SizeSmall
	case "ref":
		return biaslab.SizeRef
	}
	return biaslab.SizeTest
}

func labOptions() biaslab.LabOptions {
	opt := biaslab.LabOptions{Size: benchSize()}
	if opt.Size == biaslab.SizeTest {
		// Keep the default harness cheap: coarser sweeps, fewer orders.
		opt.EnvStep = 512
		opt.FineStep = 256
		opt.LinkOrders = 6
		opt.RandomSetups = 6
	}
	return opt
}

// runExperiment is the shared body: fresh Lab per iteration so caching
// never hides the real cost, artifact printed once for inspection.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	printed := false
	for i := 0; i < b.N; i++ {
		lab := biaslab.NewLab(labOptions())
		res, err := lab.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if !printed {
			printed = true
			fmt.Printf("\n%s\n", res.Text)
		}
	}
}

// BenchmarkTableSuite regenerates T1, the benchmark-suite table.
func BenchmarkTableSuite(b *testing.B) { runExperiment(b, "T1") }

// BenchmarkFigure1 regenerates Figure 1: perlbench cycles at O2 and O3 as
// the UNIX environment grows (Core 2).
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "F1") }

// BenchmarkFigure2 regenerates Figure 2: perlbench O3 speedup vs
// environment size (Core 2).
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "F2") }

// BenchmarkFigure3 regenerates Figure 3: suite-wide O3 speedup ranges
// across environment sizes on Core 2 — the paper's headline figure.
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "F3") }

// BenchmarkFigure4 regenerates Figure 4: the same study on Pentium 4.
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "F4") }

// BenchmarkFigure5 regenerates Figure 5: the same study on the m5 O3CPU
// model — bias appears even on a simulator.
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "F5") }

// BenchmarkFigure6 regenerates Figure 6: suite-wide O3 speedup ranges
// across link orders on Core 2.
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "F6") }

// BenchmarkFigure7 regenerates Figure 7: the link-order study on m5.
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "F7") }

// BenchmarkTableBias regenerates T2: bias magnitude vs the O3 effect for
// every benchmark × machine × factor.
func BenchmarkTableBias(b *testing.B) { runExperiment(b, "T2") }

// BenchmarkTableSurvey regenerates T3: the 133-paper literature survey.
func BenchmarkTableSurvey(b *testing.B) { runExperiment(b, "T3") }

// BenchmarkTableCompilers regenerates T4: environment bias under both
// compiler personalities.
func BenchmarkTableCompilers(b *testing.B) { runExperiment(b, "T4") }

// BenchmarkFigure8 regenerates F8: the causal-analysis intervention study.
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "F8") }

// BenchmarkFigure9 regenerates F9: setup randomization vs single-setup
// estimates.
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "F9") }

// BenchmarkSimulator measures raw simulator throughput (instructions per
// second of host time), the figure of merit for harness cost planning.
func BenchmarkSimulator(b *testing.B) {
	r := biaslab.NewRunner(benchSize())
	bm, _ := biaslab.Benchmark("libquantum")
	setup := biaslab.DefaultSetup("core2")
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m, err := r.Measure(context.Background(), bm, setup)
		if err != nil {
			b.Fatal(err)
		}
		instrs += m.Counters.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkEnvSweep measures the end-to-end cost of one environment sweep
// (the Figure 3 inner loop: one benchmark, one machine, 33 env sizes),
// reporting sweep points per second of host time. A sweep shares one
// compile, one link and one predecode across its points, so this is the
// workload the memoized pipeline is built for.
func BenchmarkEnvSweep(b *testing.B) {
	bm, _ := biaslab.Benchmark("libquantum")
	setup := biaslab.DefaultSetup("core2")
	sizes := biaslab.DefaultEnvSizes(128)
	var points int
	for i := 0; i < b.N; i++ {
		// Fresh Runner per iteration: the sweep pays its own compile and
		// link, exactly as an experiment does.
		r := biaslab.NewRunner(benchSize())
		pts, err := biaslab.EnvSweep(context.Background(), r, bm, setup, sizes)
		if err != nil {
			b.Fatal(err)
		}
		points += len(pts)
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkMeasureRepeated measures the steady-state cost of re-measuring
// one (benchmark, setup) on a warm Runner — the singleflight caches make
// this pure load+simulate, the per-run floor for randomized-setup studies.
func BenchmarkMeasureRepeated(b *testing.B) {
	r := biaslab.NewRunner(benchSize())
	bm, _ := biaslab.Benchmark("hmmer")
	setup := biaslab.DefaultSetup("p4")
	if _, err := r.Measure(context.Background(), bm, setup); err != nil {
		b.Fatal(err) // warm the compile/link caches
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m, err := r.Measure(context.Background(), bm, setup)
		if err != nil {
			b.Fatal(err)
		}
		instrs += m.Counters.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkCoRun measures co-run simulation throughput: subject and
// co-runner stepped through ONE shared cache/TLB/predictor hierarchy in
// deterministic round-robin quanta. Warm Runner, so this is the pure
// interleaved-execute cost; the Minstr/s metric counts the subject's
// retired instructions only, making it directly comparable to
// BenchmarkMeasureRepeated's solo figure — the gap is the price of
// tenancy (two images resident plus memo flushes at quantum boundaries).
func BenchmarkCoRun(b *testing.B) {
	r := biaslab.NewRunner(benchSize())
	bm, _ := biaslab.Benchmark("sjeng")
	setup := biaslab.DefaultSetup("core2")
	setup.CoRunner = biaslab.CoRunner{Bench: "sjeng"}
	if _, err := r.Measure(context.Background(), bm, setup); err != nil {
		b.Fatal(err) // warm the compile/link caches for both tenants
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m, err := r.Measure(context.Background(), bm, setup)
		if err != nil {
			b.Fatal(err)
		}
		instrs += m.Counters.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkToolchain measures the compile+link path alone.
func BenchmarkToolchain(b *testing.B) {
	bm, _ := biaslab.Benchmark("gcc")
	for i := 0; i < b.N; i++ {
		r := biaslab.NewRunner(benchSize())
		// Measure forces compile+link+load+run; dominate it with compile
		// by using the smallest machine run (test size fixed here).
		if _, err := r.Measure(context.Background(), bm, biaslab.DefaultSetup("m5")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEnv regenerates A1: the mechanism ablation for the
// environment-size bias on Pentium 4 variants.
func BenchmarkAblationEnv(b *testing.B) { runExperiment(b, "A1") }

// BenchmarkAblationLink regenerates A2: the mechanism ablation for the
// link-order bias on Core 2 variants.
func BenchmarkAblationLink(b *testing.B) { runExperiment(b, "A2") }

// BenchmarkAblationPrefetch regenerates A3: what a next-line prefetcher
// does to measurement bias on the m5 model.
func BenchmarkAblationPrefetch(b *testing.B) { runExperiment(b, "A3") }
