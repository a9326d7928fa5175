package server

import (
	"context"
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/channels"
	"biaslab/internal/core"
	"biaslab/internal/experiments"
)

// Execute runs the measurement a canonical spec names on r and returns
// the result envelope. It is the single execution path behind both the
// daemon's workers and cmd/biaslab's local mode — the reason a job
// submitted over HTTP resolves to exactly the result the same command
// computes locally.
//
// spec must be canonical (Canonicalize it first); r must have been built
// at spec's workload size. ck (optional) checkpoints sweep and experiment
// points for crash-safe resume. onTotal (optional) is told the job's point
// count as soon as it is known.
func Execute(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint, onTotal func(int)) (*Result, error) {
	if onTotal == nil {
		onTotal = func(int) {}
	}
	res := &Result{Kind: spec.Kind, Spec: spec}
	var err error
	switch spec.Kind {
	case KindRun:
		res.Run, err = executeRun(ctx, r, spec, onTotal)
	case KindSweepEnv:
		res.EnvSweep, err = executeEnvSweep(ctx, r, spec, ck, onTotal)
	case KindSweepLink:
		res.LinkSweep, err = executeLinkSweep(ctx, r, spec, ck, onTotal)
	case KindSweepPad, KindSweepBase:
		res.ChannelSweep, err = executeChannelSweep(ctx, r, spec, ck, onTotal)
	case KindSweepTenant:
		res.TenantSweep, err = executeTenantSweep(ctx, r, spec, ck, onTotal)
	case KindRandomize:
		res.Randomize, err = executeRandomize(ctx, r, spec, ck, onTotal)
	case KindExperiment:
		res.Experiment, err = executeExperiment(ctx, r, spec, ck)
	default:
		return nil, fmt.Errorf("server: unknown job kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// BaseSetup builds the setup a canonical spec starts from and resolves its
// benchmark. Exported for the cluster package, whose shard planner and
// shard executor must derive exactly the setups the single-node path
// measures.
func BaseSetup(spec JobSpec) (core.Setup, *bench.Benchmark, error) {
	b, ok := bench.ByName(spec.Bench)
	if !ok {
		return core.Setup{}, nil, fmt.Errorf("server: unknown benchmark %q", spec.Bench)
	}
	cfg, err := spec.compilerConfig()
	if err != nil {
		return core.Setup{}, nil, err
	}
	setup := core.DefaultSetup(spec.Machine)
	setup.Compiler = cfg
	// The co-run parameters ride on the setup. For kinds that vary the
	// co-runner (sweep-tenant, randomize with co_random) CoBench is empty
	// here: the setup carries the fixed level and quantum while the sweep
	// or the draw fills in each point's identity.
	setup.CoRunner = core.CoRunner{Bench: spec.CoBench, Level: spec.CoLevel, Quantum: spec.Quantum}
	return setup, b, nil
}

func executeRun(ctx context.Context, r *core.Runner, spec JobSpec, onTotal func(int)) (*RunResult, error) {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	setup.EnvBytes = spec.EnvBytes
	onTotal(1)
	m, err := r.Measure(ctx, b, setup)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Benchmark: b.Name,
		Size:      spec.Size,
		Setup:     setup.String(),
		Cycles:    m.Cycles,
		Checksum:  m.Checksum,
		Counters:  m.Counters,
	}, nil
}

func executeEnvSweep(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint, onTotal func(int)) (*EnvSweepResult, error) {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	sizes := core.DefaultEnvSizes(spec.Step)
	onTotal(len(sizes))
	points, err := core.EnvSweepCheckpointed(ctx, r, b, setup, sizes, ck)
	if err != nil {
		return nil, err
	}
	speedups := make([]float64, len(points))
	for i, p := range points {
		speedups[i] = p.Speedup
	}
	return &EnvSweepResult{
		Benchmark: b.Name,
		Machine:   spec.Machine,
		Points:    points,
		Report:    core.NewBiasReport(b.Name, spec.Machine, "environment size", speedups),
	}, nil
}

func executeChannelSweep(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint, onTotal func(int)) (*ChannelSweepResult, error) {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	channel, factor := "pad", "text padding"
	values := core.DefaultPadSizes()
	sweep := core.PadSweepCheckpointed
	if spec.Kind == KindSweepBase {
		channel, factor = "base", "image base"
		values = core.DefaultTextBases()
		sweep = core.BaseSweepCheckpointed
	}
	onTotal(len(values))
	points, err := sweep(ctx, r, b, setup, values, ck)
	if err != nil {
		return nil, err
	}
	speedups := make([]float64, len(points))
	for i, p := range points {
		speedups[i] = p.Speedup
	}
	return &ChannelSweepResult{
		Benchmark: b.Name,
		Machine:   spec.Machine,
		Channel:   channel,
		Points:    points,
		Report:    core.NewBiasReport(b.Name, spec.Machine, factor, speedups),
	}, nil
}

func executeLinkSweep(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint, onTotal func(int)) (*LinkSweepResult, error) {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	onTotal(spec.Orders + 2) // default + alphabetical + random orders
	points, err := core.LinkSweepCheckpointed(ctx, r, b, setup, spec.Orders, spec.Seed, ck)
	if err != nil {
		return nil, err
	}
	speedups := make([]float64, len(points))
	for i, p := range points {
		speedups[i] = p.Speedup
	}
	return &LinkSweepResult{
		Benchmark: b.Name,
		Machine:   spec.Machine,
		Points:    points,
		Report:    core.NewBiasReport(b.Name, spec.Machine, "link order", speedups),
	}, nil
}

func executeTenantSweep(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint, onTotal func(int)) (*TenantSweepResult, error) {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	ch, _ := channels.ByName("tenant")
	corunners := core.DefaultCoRunners()
	onTotal(len(corunners))
	points, err := core.TenantSweepCheckpointed(ctx, r, b, setup, corunners, ck)
	if err != nil {
		return nil, err
	}
	speedups := make([]float64, len(points))
	for i, p := range points {
		speedups[i] = p.Speedup
	}
	return &TenantSweepResult{
		Benchmark: b.Name,
		Machine:   spec.Machine,
		CoLevel:   spec.CoLevel,
		Quantum:   spec.Quantum,
		Points:    points,
		Report:    core.NewBiasReport(b.Name, spec.Machine, ch.Factor, speedups),
	}, nil
}

func executeRandomize(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint, onTotal func(int)) (*RandomizeResult, error) {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	onTotal(spec.N)
	var est *core.RobustEstimate
	switch {
	case spec.Tol > 0:
		// Adaptive sampling's setup count depends on interim intervals, so
		// it is not checkpointed: a resumed run must re-decide when to stop.
		est, err = core.EstimateSpeedupAdaptive(ctx, r, b, setup, spec.Tol, 4, spec.N, spec.Seed)
	case spec.CoRandom:
		est, err = core.EstimateSpeedupTenantCheckpointed(ctx, r, b, setup, spec.N, spec.Seed, ck)
	default:
		est, err = core.EstimateSpeedupCheckpointed(ctx, r, b, setup, spec.N, spec.Seed, ck)
	}
	if err != nil {
		return nil, err
	}
	return &RandomizeResult{Estimate: *est, Conclusive: est.Conclusive()}, nil
}

func executeExperiment(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint) (*ExperimentResult, error) {
	size, err := parseSize(spec.Size)
	if err != nil {
		return nil, err
	}
	lab := experiments.NewLabCtx(ctx, experiments.Options{Size: size}, ck)
	// Swap in the shared Runner so experiment jobs reuse the daemon's
	// compile/link caches and feed its measurement counters.
	lab.Runner = r
	out, err := lab.ByID(spec.Experiment)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{ID: out.ID, Title: out.Title, Text: out.Text, CSV: out.CSV}, nil
}
