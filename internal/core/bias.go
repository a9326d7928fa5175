package core

import (
	"context"
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/stats"
)

// EnvPoint is one point of an environment-size sweep: the measured cycles
// at two optimization levels and their ratio.
type EnvPoint struct {
	EnvBytes   uint64
	CyclesBase uint64
	CyclesOpt  uint64
	Speedup    float64
}

// EnvSweep measures b's O3-over-O2 speedup at every environment size in
// sizes, holding everything else in setup fixed. This regenerates the
// paper's Figures 1–2 for a single benchmark and, aggregated across the
// suite, Figures 3–5.
func EnvSweep(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64) ([]EnvPoint, error) {
	return EnvSweepCheckpointed(ctx, r, b, setup, sizes, nil)
}

// PointKey returns the checkpoint-journal key of one measurement point:
// the point's kind, the benchmark, and the *complete* rendered setup, so
// that points recorded under any different setup (machine, compiler,
// order, padding, shift, co-runner) can never be replayed for this one.
// Kinds in use: "env", "pad", "base", "link" and "tenant" (the sweeps)
// and "rand" (randomized-setup estimates). Every point plan keys its
// points with it, and the cluster journals worker-measured points under
// the plan's keys, so key text is a compatibility contract: journals
// written by older binaries resume only while it stays fixed.
func PointKey(kind, benchName string, s Setup) string {
	return kind + "/" + benchName + "/" + s.String()
}

// EnvPointPlan is the point plan of an environment-size sweep: point i is
// b's O3-over-O2 speedup with setup's environment forced to sizes[i].
func EnvPointPlan(r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64) *PointPlan[EnvPoint] {
	setups := make([]Setup, len(sizes))
	for i, sz := range sizes {
		setups[i] = setup
		setups[i].EnvBytes = sz
	}
	return speedupPlan(r, b, "env", setups, func(i int, speedup float64, mb, mo *Measurement) EnvPoint {
		return EnvPoint{EnvBytes: sizes[i], CyclesBase: mb.Cycles, CyclesOpt: mo.Cycles, Speedup: speedup}
	})
}

// EnvSweepCheckpointed is EnvSweep with journal-based checkpoint/resume:
// every completed point is recorded in ck before the sweep moves on, and
// points already recorded (a resumed run) are replayed without
// re-measurement — bit-identical, because measurements are deterministic.
// See PointPlan.Sweep for the partial-result contract.
func EnvSweepCheckpointed(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64, ck Checkpoint) ([]EnvPoint, error) {
	return EnvPointPlan(r, b, setup, sizes).Sweep(ctx, ck)
}

// DefaultEnvSizes returns the canonical environment-size sweep: from the
// empty environment to 4 KiB in the given step (the paper swept 0–4088
// bytes). Sizes 9–16 are unrepresentable (see loader.SyntheticEnv) and are
// skipped automatically.
func DefaultEnvSizes(step uint64) []uint64 {
	if step == 0 {
		step = 128
	}
	sizes := []uint64{8}
	for sz := step; sz <= 4096; sz += step {
		if sz >= 17 {
			sizes = append(sizes, sz)
		}
	}
	return sizes
}

// LinkPoint is one link order's measurement.
type LinkPoint struct {
	Label      string
	Order      []int
	CyclesBase uint64
	CyclesOpt  uint64
	Speedup    float64
}

// LinkSweep measures b's speedup under the default order, the alphabetical
// order, and n random permutations — the paper's link-order experiment.
func LinkSweep(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, n int, seed uint64) ([]LinkPoint, error) {
	return LinkSweepCheckpointed(ctx, r, b, setup, n, seed, nil)
}

// linkCandidate is one labelled link order of a link sweep: the default
// order, the alphabetical order, or a seeded random permutation.
type linkCandidate struct {
	Label string
	Order []int
}

// linkCandidates enumerates the link orders a link sweep measures — the
// default order, the alphabetical order, and n seeded random permutations.
// The set is a pure function of (names, n, seed), which is what lets a
// resumed or distributed sweep regenerate exactly the candidates an
// earlier run measured.
func linkCandidates(names []string, n int, seed uint64) []linkCandidate {
	rng := stats.NewRNG(seed)
	cands := []linkCandidate{
		{"default", IdentityOrder(len(names))},
		{"alphabetical", AlphabeticalOrder(names)},
	}
	for i := 0; i < n; i++ {
		cands = append(cands, linkCandidate{fmt.Sprintf("random%02d", i), RandomOrder(len(names), rng)})
	}
	return cands
}

// LinkPointPlan is the point plan of a link-order sweep: the default
// order, the alphabetical order, and n random permutations drawn from
// seed, each measured as b's O3-over-O2 speedup.
func LinkPointPlan(r *Runner, b *bench.Benchmark, setup Setup, n int, seed uint64) *PointPlan[LinkPoint] {
	cands := linkCandidates(r.UnitNames(b), n, seed)
	setups := make([]Setup, len(cands))
	for i, c := range cands {
		setups[i] = setup
		setups[i].LinkOrder = c.Order
	}
	p := speedupPlan(r, b, "link", setups, func(i int, speedup float64, mb, mo *Measurement) LinkPoint {
		return LinkPoint{Label: cands[i].Label, Order: cands[i].Order, CyclesBase: mb.Cycles, CyclesOpt: mo.Cycles, Speedup: speedup}
	})
	// A stored point carries cycles and speedup; the label and order are
	// regenerated, so keep the fresh ones (identical by construction) to
	// avoid aliasing journal-owned slices.
	p.fresh = func(i int, lp *LinkPoint) { lp.Label, lp.Order = cands[i].Label, cands[i].Order }
	return p
}

// LinkSweepCheckpointed is LinkSweep with checkpoint/resume; see
// EnvSweepCheckpointed for the journal and partial-result contract. The
// permutation set depends only on (n, seed), so a resumed run regenerates
// the same candidates and replays the recorded ones.
func LinkSweepCheckpointed(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, n int, seed uint64, ck Checkpoint) ([]LinkPoint, error) {
	return LinkPointPlan(r, b, setup, n, seed).Sweep(ctx, ck)
}

// BiasReport summarizes how a benchmark's measured speedup moves as one
// innocuous setup factor varies — the per-benchmark content of the paper's
// violin plots and of its "is the bias big enough to matter?" analysis.
type BiasReport struct {
	Benchmark string
	Machine   string
	Factor    string // "environment size" or "link order"
	Speedups  stats.Summary
	// FlipsSign is true when the sweep contains speedups on both sides of
	// 1.0: the same experiment supports opposite conclusions.
	FlipsSign bool
	// BiasOverEffect is (max−min speedup) / |median speedup − 1|: how big
	// the bias is relative to the effect being measured. Values ≥ 1 mean
	// the setup choice matters as much as the optimization itself.
	BiasOverEffect float64
}

// NewBiasReport summarizes a slice of speedups.
func NewBiasReport(benchName, machineName, factor string, speedups []float64) BiasReport {
	s := stats.Summarize(speedups)
	rep := BiasReport{
		Benchmark: benchName,
		Machine:   machineName,
		Factor:    factor,
		Speedups:  s,
		FlipsSign: s.Min < 1 && s.Max > 1,
	}
	effect := s.Median - 1
	if effect < 0 {
		effect = -effect
	}
	if effect < 1e-9 {
		effect = 1e-9
	}
	rep.BiasOverEffect = s.Range() / effect
	return rep
}

func (rep BiasReport) String() string {
	flip := ""
	if rep.FlipsSign {
		flip = " FLIPS-SIGN"
	}
	return fmt.Sprintf("%-11s %-9s %-16s speedup %.4f..%.4f (med %.4f) bias/effect %.2f%s",
		rep.Benchmark, rep.Machine, rep.Factor,
		rep.Speedups.Min, rep.Speedups.Max, rep.Speedups.Median,
		rep.BiasOverEffect, flip)
}

// SuiteEnvStudy runs the environment sweep for every benchmark on one
// machine and returns a BiasReport per benchmark plus the raw speedups —
// the data behind Figures 3–5. A non-nil ck checkpoints every completed
// point, so an interrupted study resumes mid-benchmark.
func SuiteEnvStudy(ctx context.Context, r *Runner, machineName string, sizes []uint64, pers compiler.Personality, ck Checkpoint) ([]BiasReport, map[string][]float64, error) {
	reports := []BiasReport{}
	raw := map[string][]float64{}
	for _, b := range bench.All() {
		setup := DefaultSetup(machineName)
		setup.Compiler.Personality = pers
		points, err := EnvSweepCheckpointed(ctx, r, b, setup, sizes, ck)
		if err != nil {
			return nil, nil, err
		}
		speedups := make([]float64, len(points))
		for i, p := range points {
			speedups[i] = p.Speedup
		}
		raw[b.Name] = speedups
		reports = append(reports, NewBiasReport(b.Name, machineName, "environment size", speedups))
	}
	return reports, raw, nil
}

// SuiteLinkStudy runs the link-order sweep for every benchmark on one
// machine — the data behind Figures 6–7. A non-nil ck checkpoints every
// completed point.
func SuiteLinkStudy(ctx context.Context, r *Runner, machineName string, nOrders int, seed uint64, pers compiler.Personality, ck Checkpoint) ([]BiasReport, map[string][]float64, error) {
	reports := []BiasReport{}
	raw := map[string][]float64{}
	for _, b := range bench.All() {
		setup := DefaultSetup(machineName)
		setup.Compiler.Personality = pers
		points, err := LinkSweepCheckpointed(ctx, r, b, setup, nOrders, seed, ck)
		if err != nil {
			return nil, nil, err
		}
		speedups := make([]float64, len(points))
		for i, p := range points {
			speedups[i] = p.Speedup
		}
		raw[b.Name] = speedups
		reports = append(reports, NewBiasReport(b.Name, machineName, "link order", speedups))
	}
	return reports, raw, nil
}
