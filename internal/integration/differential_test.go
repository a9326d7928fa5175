package integration

import (
	"fmt"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
	"biaslab/internal/tenancy"
)

// TestFastPathMatchesReference is the equivalence proof for the optimized
// execute engine: every benchmark × {O2, O3} × {gcc, icc} × all three
// machine models runs through the retained straightforward reference
// stepper and three more ways, and every counter, the checksum, the output
// and the exit code must be bit-identical to the reference run:
//
//   - fast: one RunCtx, where the threaded engine retires nearly every
//     instruction;
//   - sliced: BeginRun plus StepTo in co-run quanta of
//     tenancy.DefaultQuantum instructions, so every slice ends in a
//     threaded-engine → reference-stepper handoff exactly as a co-run does;
//   - instrumented: profiling and a CountingTracer enabled, which routes
//     every instruction through the per-op stepper's instrumentation.
//
// Any divergence means an "optimization" changed a measured value — the
// one thing this repo must never do.
func TestFastPathMatchesReference(t *testing.T) {
	size := bench.SizeSmall
	if testing.Short() {
		size = bench.SizeTest
	}
	levels := []compiler.Level{compiler.O2, compiler.O3}
	personalities := []compiler.Personality{compiler.GCC, compiler.ICC}
	models := []string{"p4", "core2", "m5"}
	env := loader.SyntheticEnv(512)
	const maxInstr = 1 << 31

	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, pers := range personalities {
				for _, lvl := range levels {
					cfg := compiler.Config{Level: lvl, Personality: pers}
					objs, _, err := compiler.Compile(b.Sources(size), cfg)
					if err != nil {
						t.Fatalf("%s: compile: %v", cfg, err)
					}
					exe, err := linker.Link(objs, linker.Options{})
					if err != nil {
						t.Fatalf("%s: link: %v", cfg, err)
					}
					for _, model := range models {
						mc, ok := machine.ConfigByName(model)
						if !ok {
							t.Fatalf("unknown machine %s", model)
						}
						label := fmt.Sprintf("%s/%s", cfg, model)
						// Separate images: a run mutates its memory.
						load := func() *loader.Image {
							img, err := loader.Load(exe, loader.Options{Env: env, Args: []string{b.Name}})
							if err != nil {
								t.Fatalf("%s: load: %v", label, err)
							}
							return img
						}
						ref, err := machine.New(mc).RunReference(load(), maxInstr)
						if err != nil {
							t.Fatalf("%s: reference run: %v", label, err)
						}

						fast, err := machine.New(mc).Run(load(), maxInstr)
						if err != nil {
							t.Fatalf("%s: fast run: %v", label, err)
						}
						sameResult(t, label+" fast", fast, ref)

						m := machine.New(mc)
						m.BeginRun(load())
						for limit := uint64(tenancy.DefaultQuantum); ; limit += tenancy.DefaultQuantum {
							halted, err := m.StepTo(limit)
							if err != nil {
								t.Fatalf("%s: sliced run: %v", label, err)
							}
							if halted {
								break
							}
							if limit >= maxInstr {
								t.Fatalf("%s: sliced run: %v", label, m.BudgetErr(maxInstr))
							}
						}
						sameResult(t, label+" sliced", m.TakeResult(), ref)

						m = machine.New(mc)
						m.EnableProfiling(true)
						m.SetTracer(&machine.CountingTracer{})
						inst, err := m.Run(load(), maxInstr)
						if err != nil {
							t.Fatalf("%s: instrumented run: %v", label, err)
						}
						sameResult(t, label+" instrumented", inst, ref)
					}
				}
			}
		})
	}
}

// sameResult requires got to match the reference run bit for bit in every
// counter, the checksum, the exit code and the output.
func sameResult(t *testing.T, label string, got, ref *machine.Result) {
	t.Helper()
	if got.Counters != ref.Counters {
		t.Errorf("%s: counters diverge:\ngot: %+v\nref: %+v", label, got.Counters, ref.Counters)
	}
	if got.Checksum != ref.Checksum || got.ExitCode != ref.ExitCode {
		t.Errorf("%s: checksum/exit diverge: %d/%d vs %d/%d",
			label, got.Checksum, got.ExitCode, ref.Checksum, ref.ExitCode)
	}
	if len(got.Output) != len(ref.Output) {
		t.Errorf("%s: output length diverges: %d vs %d", label, len(got.Output), len(ref.Output))
		return
	}
	for i := range got.Output {
		if got.Output[i] != ref.Output[i] {
			t.Errorf("%s: output[%d] diverges: %d vs %d", label, i, got.Output[i], ref.Output[i])
			return
		}
	}
}
