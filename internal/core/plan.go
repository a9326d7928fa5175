package core

import (
	"fmt"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
)

// machineConfig resolves a machine name to its configuration the same way
// acquireMachine does: registered custom configs first, then the built-in
// catalogue.
func (r *Runner) machineConfig(name string) (machine.Config, error) {
	r.mu.Lock()
	cfg, ok := r.custom[name]
	r.mu.Unlock()
	if ok {
		return cfg, nil
	}
	cfg, ok = machine.ConfigByName(name)
	if !ok {
		return machine.Config{}, fmt.Errorf("core: unknown machine %q", name)
	}
	return cfg, nil
}

// PlanEnvSweep asks the bias oracle where an environment sweep of b under
// setup can transition: it builds one conflict map per optimization level —
// a sweep point measures both the O2 and the O3 binary, and their stack
// placements differ — over the exact executables the sweep will run, and
// merges them into a single plan. The plan is the same struct `biaslab
// predict -json` emits.
func PlanEnvSweep(r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64) (*analysis.EnvPlan, error) {
	cfg, err := r.machineConfig(setup.Machine)
	if err != nil {
		return nil, err
	}
	maps := make([]*analysis.ConflictMap, 0, 2)
	for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
		s := setup.WithLevel(lvl)
		exe, err := r.Executable(b, s)
		if err != nil {
			return nil, err
		}
		prog, err := r.program(b, s.Compiler)
		if err != nil {
			return nil, err
		}
		o, err := analysis.NewOracle(exe, prog, cfg, []string{b.Name}, s.StackShift)
		if err != nil {
			return nil, fmt.Errorf("core: planning env sweep of %s: %w", b.Name, err)
		}
		maps = append(maps, o.ConflictMap(b.Name, setup.Machine, sizes))
	}
	return analysis.NewEnvPlan(b.Name, setup.Machine, sizes, maps...)
}

// planChannelSweep builds the dataflow-backed plan for a scalar code-layout
// channel: it links the exact executable the sweep will measure at every
// grid value and both optimization levels, runs the interprocedural engine
// over each, and asks the channel comparator for pairwise verdicts. Unlike
// the env oracle — which predicts from one binary because only the stack
// moves — a code channel needs every layout in hand: the proofs are
// relations between pairs of binaries, not properties of one.
func planChannelSweep(r *Runner, b *bench.Benchmark, spec channelSpec, setup Setup, values []uint64) (*analysis.EnvPlan, error) {
	mcfg, err := r.machineConfig(setup.Machine)
	if err != nil {
		return nil, err
	}
	envBytes := setup.EnvBytes
	if envBytes == 0 {
		envBytes = DefaultEnvBytes
	}
	sp := loader.InitialSP(loader.Options{
		Env:        loader.SyntheticEnv(envBytes),
		Args:       []string{b.Name},
		StackShift: setup.StackShift,
	})
	maps := make([]*analysis.ChannelConflictMap, 0, 2)
	for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
		layouts := make([]*analysis.ChannelLayout, 0, len(values))
		for _, v := range values {
			s := spec.apply(setup, v).WithLevel(lvl)
			exe, err := r.Executable(b, s)
			if err != nil {
				return nil, err
			}
			prog, err := r.program(b, s.Compiler)
			if err != nil {
				return nil, err
			}
			cl, err := analysis.NewChannelLayout(v, exe, prog)
			if err != nil {
				return nil, fmt.Errorf("core: planning %s sweep of %s: %w", spec.kind, b.Name, err)
			}
			layouts = append(layouts, cl)
		}
		maps = append(maps, analysis.BuildChannelConflictMap(b.Name, setup.Machine, spec.kind, mcfg, sp, layouts))
	}
	return analysis.NewChannelPlan(b.Name, setup.Machine, values, maps...)
}

// PlanPadSweep asks the channel comparator where a text-padding sweep of b
// under setup can transition. The plan is the same struct `biaslab predict
// -channel pad -json` emits.
func PlanPadSweep(r *Runner, b *bench.Benchmark, setup Setup, values []uint64) (*analysis.EnvPlan, error) {
	return planChannelSweep(r, b, padChannel, setup, values)
}

// PlanBaseSweep asks the channel comparator where an image-base sweep of b
// under setup can transition.
func PlanBaseSweep(r *Runner, b *bench.Benchmark, setup Setup, values []uint64) (*analysis.EnvPlan, error) {
	return planChannelSweep(r, b, baseChannel, setup, values)
}
