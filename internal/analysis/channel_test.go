package analysis_test

import (
	"context"
	"fmt"
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
)

// TestChannelCrossValidation is the acceptance gate of the channel
// comparator: for two benchmarks × two real machine configs × both code
// channels, every pair of layouts the comparator proves EQUAL must measure
// the same cycle count, and every pair it proves TRANSITION must measure
// different cycle counts — no false verdicts in either direction. The grids
// are chosen so both verdict kinds actually occur (asserted), making the
// test non-vacuous: a comparator that answered UNKNOWN everywhere would
// fail it.
func TestChannelCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 32 full benchmark runs")
	}
	ctx := context.Background()
	const base = linker.DefaultTextBase
	channels := []struct {
		name   string
		values []uint64
		apply  func(core.Setup, uint64) core.Setup
		link   func(v uint64) linker.Options
	}{
		{
			name:   "pad",
			values: []uint64{0, 4, 16384, 32768},
			apply:  func(s core.Setup, v uint64) core.Setup { s.TextPad = v; return s },
			link:   func(v uint64) linker.Options { return linker.Options{PadObjects: v} },
		},
		{
			name:   "base",
			values: []uint64{base, base + 4, base + 8192, base + 16384},
			apply:  func(s core.Setup, v uint64) core.Setup { s.TextBase = v; return s },
			link:   func(v uint64) linker.Options { return linker.Options{TextBase: v} },
		},
	}

	for _, benchName := range []string{"hmmer", "sjeng"} {
		b, ok := bench.ByName(benchName)
		if !ok {
			t.Fatalf("benchmark %s not registered", benchName)
		}
		objs, prog, err := compiler.Compile(b.Sources(bench.SizeTest), compiler.Config{Level: compiler.O2})
		if err != nil {
			t.Fatal(err)
		}
		for _, machineName := range []string{"p4", "core2"} {
			cfg, ok := machine.ConfigByName(machineName)
			if !ok {
				t.Fatalf("machine %s not registered", machineName)
			}
			for _, ch := range channels {
				t.Run(fmt.Sprintf("%s/%s/%s", benchName, machineName, ch.name), func(t *testing.T) {
					layouts := make([]*analysis.ChannelLayout, 0, len(ch.values))
					for _, v := range ch.values {
						exe, err := linker.Link(objs, ch.link(v))
						if err != nil {
							t.Fatal(err)
						}
						cl, err := analysis.NewChannelLayout(v, exe, prog)
						if err != nil {
							t.Fatal(err)
						}
						layouts = append(layouts, cl)
					}
					sp := loader.InitialSP(loader.Options{
						Env:  loader.SyntheticEnv(core.DefaultEnvBytes),
						Args: []string{b.Name},
					})
					cm := analysis.BuildChannelConflictMap(b.Name, machineName, ch.name, cfg, sp, layouts)

					// Measured side: one full simulation per grid value,
					// through the same runner path the sweeps use.
					r := core.NewRunner(bench.SizeTest)
					setup := core.DefaultSetup(machineName)
					cycles := make([]uint64, len(ch.values))
					for i, v := range ch.values {
						m, err := r.Measure(ctx, b, ch.apply(setup, v))
						if err != nil {
							t.Fatal(err)
						}
						cycles[i] = m.Cycles
					}

					nEqual, nTransition := 0, 0
					for _, pr := range cm.Pairs {
						same := cycles[pr.I] == cycles[pr.J]
						switch pr.Verdict {
						case analysis.VerdictEqual:
							nEqual++
							if !same {
								t.Errorf("FALSE EQUAL %d→%d (%s): %d vs %d cycles",
									ch.values[pr.I], ch.values[pr.J], pr.Reason, cycles[pr.I], cycles[pr.J])
							}
						case analysis.VerdictTransition:
							nTransition++
							if same {
								t.Errorf("FALSE TRANSITION %d→%d (%s): both %d cycles",
									ch.values[pr.I], ch.values[pr.J], pr.Reason, cycles[pr.I])
							}
						}
					}
					t.Logf("%d pairs: %d proven equal, %d proven transitions",
						len(cm.Pairs), nEqual, nTransition)
					if nEqual == 0 || nTransition == 0 {
						t.Errorf("grid must exercise both verdict kinds: %d EQUAL, %d TRANSITION", nEqual, nTransition)
					}
				})
			}
		}
	}
}

// TestChannelPlanBoundaries locks the shape NewChannelPlan hands `biaslab
// predict` and the auditor: consecutive proven-equal pairs merge into one plateau,
// every non-EQUAL consecutive pair opens a new one, and an undecided pair
// demotes the plan to approximate without hiding the boundary.
func TestChannelPlanBoundaries(t *testing.T) {
	b, ok := bench.ByName("hmmer")
	if !ok {
		t.Fatal("hmmer not registered")
	}
	r := core.NewRunner(bench.SizeTest)
	setup := core.DefaultSetup("p4")
	values := []uint64{0, 4, 16384, 32768}
	plan, err := core.PlanPadSweep(r, b, setup, values)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Channel != "pad" {
		t.Errorf("plan.Channel = %q, want pad", plan.Channel)
	}
	if len(plan.Boundaries) == 0 {
		t.Fatal("pad plan for hmmer@p4 predicts no boundaries; the 0→4 pair is a proven transition")
	}
	// Boundary indices must be valid, strictly increasing plateau starts.
	last := 0
	for _, bi := range plan.Boundaries {
		if bi <= last || bi >= len(values) {
			t.Fatalf("malformed boundary index %d in %v", bi, plan.Boundaries)
		}
		last = bi
	}
}
