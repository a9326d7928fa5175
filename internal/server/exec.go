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
	case KindExperiment:
		res.Experiment, err = executeExperiment(ctx, r, spec, ck)
	case KindRun, KindSweepEnv, KindSweepLink, KindSweepPad, KindSweepBase, KindSweepTenant, KindRandomize:
		err = executeBench(ctx, r, spec, ck, onTotal, res)
	default:
		return nil, fmt.Errorf("server: unknown job kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// executeBench runs a single-benchmark spec into res. Sweeps and fixed-n
// randomize run the same point plan PointPlan hands the cluster.
func executeBench(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint, onTotal func(int), res *Result) error {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return err
	}
	switch spec.Kind {
	case KindRun:
		res.Run, err = executeRun(ctx, r, b, setup, spec, onTotal)
	case KindSweepEnv:
		res.EnvSweep = &EnvSweepResult{Benchmark: b.Name, Machine: spec.Machine}
		res.EnvSweep.Points, res.EnvSweep.Report, err = sweep(ctx, envPlan(r, b, setup, spec), b, spec, ck, onTotal,
			func(p core.EnvPoint) float64 { return p.Speedup })
	case KindSweepPad, KindSweepBase:
		ch, _ := channels.ByJobKind(spec.Kind)
		res.ChannelSweep = &ChannelSweepResult{Benchmark: b.Name, Machine: spec.Machine, Channel: ch.Name}
		res.ChannelSweep.Points, res.ChannelSweep.Report, err = sweep(ctx, channelPlan(r, b, setup, spec), b, spec, ck, onTotal,
			func(p core.ChannelPoint) float64 { return p.Speedup })
	case KindSweepLink:
		res.LinkSweep = &LinkSweepResult{Benchmark: b.Name, Machine: spec.Machine}
		res.LinkSweep.Points, res.LinkSweep.Report, err = sweep(ctx, linkPlan(r, b, setup, spec), b, spec, ck, onTotal,
			func(p core.LinkPoint) float64 { return p.Speedup })
	case KindSweepTenant:
		res.TenantSweep = &TenantSweepResult{Benchmark: b.Name, Machine: spec.Machine, CoLevel: spec.CoLevel, Quantum: spec.Quantum}
		res.TenantSweep.Points, res.TenantSweep.Report, err = sweep(ctx, tenantPlan(r, b, setup, spec), b, spec, ck, onTotal,
			func(p core.TenantPoint) float64 { return p.Speedup })
	case KindRandomize:
		res.Randomize, err = executeRandomize(ctx, r, b, setup, spec, ck, onTotal)
	}
	return err
}

// Plan is a point plan with its value type erased: the ordered checkpoint
// keys of a job's points and how to measure point i. It is what a cluster
// shard needs — the planner reads the keys, the executor measures indices
// and journals each value under its key.
type Plan interface {
	Keys() []string
	Measure(ctx context.Context, i int) (any, error)
}

// PointPlan maps a canonical Shardable spec to its point plan: the plan
// Execute runs for the spec, built by the same function. The cluster plans
// shards from its keys and measures them with its Measure, so every point
// a worker measures lands under the key the single-node path looks up.
func PointPlan(r *core.Runner, spec JobSpec) (Plan, error) {
	if !Shardable(spec) {
		return nil, fmt.Errorf("server: job kind %q is not shardable", spec.Kind)
	}
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindSweepEnv:
		return envPlan(r, b, setup, spec), nil
	case KindSweepPad, KindSweepBase:
		return channelPlan(r, b, setup, spec), nil
	case KindSweepLink:
		return linkPlan(r, b, setup, spec), nil
	case KindSweepTenant:
		return tenantPlan(r, b, setup, spec), nil
	case KindRandomize:
		return randomPlan(r, b, setup, spec), nil
	}
	return nil, fmt.Errorf("server: shardable job kind %q has no point plan", spec.Kind)
}

// Each shardable kind's point plan — its grid, candidates or draw — is
// derived from the spec by exactly one of these functions, used by both
// Execute and PointPlan.

func envPlan(r *core.Runner, b *bench.Benchmark, setup core.Setup, spec JobSpec) *core.PointPlan[core.EnvPoint] {
	return core.EnvPointPlan(r, b, setup, core.DefaultEnvSizes(spec.Step))
}

func channelPlan(r *core.Runner, b *bench.Benchmark, setup core.Setup, spec JobSpec) *core.PointPlan[core.ChannelPoint] {
	if spec.Kind == KindSweepBase {
		return core.BasePointPlan(r, b, setup, core.DefaultTextBases())
	}
	return core.PadPointPlan(r, b, setup, core.DefaultPadSizes())
}

func linkPlan(r *core.Runner, b *bench.Benchmark, setup core.Setup, spec JobSpec) *core.PointPlan[core.LinkPoint] {
	return core.LinkPointPlan(r, b, setup, spec.Orders, spec.Seed)
}

func tenantPlan(r *core.Runner, b *bench.Benchmark, setup core.Setup, spec JobSpec) *core.PointPlan[core.TenantPoint] {
	return core.TenantPointPlan(r, b, setup, core.DefaultCoRunners())
}

func randomPlan(r *core.Runner, b *bench.Benchmark, setup core.Setup, spec JobSpec) *core.RandomPlan {
	return core.RandomPointPlan(r, b, setup, spec.N, spec.Seed, spec.CoRandom)
}

// sweep runs a sweep kind's point plan and summarizes its speedups under
// the swept channel's factor.
func sweep[T any](ctx context.Context, plan *core.PointPlan[T], b *bench.Benchmark, spec JobSpec, ck core.Checkpoint, onTotal func(int), speedup func(T) float64) ([]T, core.BiasReport, error) {
	onTotal(len(plan.Keys()))
	points, err := plan.Sweep(ctx, ck)
	if err != nil {
		return nil, core.BiasReport{}, err
	}
	speedups := make([]float64, len(points))
	for i, p := range points {
		speedups[i] = speedup(p)
	}
	ch, _ := channels.ByJobKind(spec.Kind)
	return points, core.NewBiasReport(b.Name, spec.Machine, ch.Factor, speedups), nil
}

// BaseSetup builds the setup a canonical spec starts from and resolves its
// benchmark: the starting point of every point plan, exported so callers
// outside the package derive exactly the setups Execute measures.
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

func executeRun(ctx context.Context, r *core.Runner, b *bench.Benchmark, setup core.Setup, spec JobSpec, onTotal func(int)) (*RunResult, error) {
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

func executeRandomize(ctx context.Context, r *core.Runner, b *bench.Benchmark, setup core.Setup, spec JobSpec, ck core.Checkpoint, onTotal func(int)) (*RandomizeResult, error) {
	onTotal(spec.N)
	var est *core.RobustEstimate
	var err error
	if spec.Tol > 0 {
		// Adaptive sampling's setup count depends on interim intervals, so
		// it is not checkpointed: a resumed run must re-decide when to stop.
		est, err = core.EstimateSpeedupAdaptive(ctx, r, b, setup, spec.Tol, 4, spec.N, spec.Seed)
	} else {
		est, err = randomPlan(r, b, setup, spec).Estimate(ctx, ck)
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
