package core

import (
	"context"

	"biaslab/internal/bench"
	"biaslab/internal/linker"
)

// Scalar layout channels beyond the environment: inter-object text padding
// ("pad") and ASLR-style image-base displacement ("base"). Both perturb only
// where the code lands, exactly like the env channel perturbs only where the
// stack lands, so they get the same sweep machinery: a grid of values, one
// O3-over-O2 speedup per point, checkpoint/resume, and (in plan.go) a
// dataflow-backed plan of where the layout can change the measurement.

// ChannelPoint is one point of a scalar channel sweep.
type ChannelPoint struct {
	Value      uint64
	CyclesBase uint64
	CyclesOpt  uint64
	Speedup    float64
}

// channelSpec defines one scalar channel: its checkpoint kind and how a grid
// value lands in a Setup.
type channelSpec struct {
	kind  string
	apply func(Setup, uint64) Setup
}

var padChannel = channelSpec{
	kind:  "pad",
	apply: func(s Setup, v uint64) Setup { s.TextPad = v; return s },
}

var baseChannel = channelSpec{
	kind:  "base",
	apply: func(s Setup, v uint64) Setup { s.TextBase = v; return s },
}

// channelPlan is the point plan of a scalar channel sweep: point i is b's
// O3-over-O2 speedup with the channel set to values[i].
func channelPlan(r *Runner, b *bench.Benchmark, spec channelSpec, setup Setup, values []uint64) *PointPlan[ChannelPoint] {
	setups := make([]Setup, len(values))
	for i, v := range values {
		setups[i] = spec.apply(setup, v)
	}
	return speedupPlan(r, b, spec.kind, setups, func(i int, speedup float64, mb, mo *Measurement) ChannelPoint {
		return ChannelPoint{Value: values[i], CyclesBase: mb.Cycles, CyclesOpt: mo.Cycles, Speedup: speedup}
	})
}

// PadPointPlan is the point plan of a text-padding sweep: setup's
// inter-object padding forced to each of values, in bytes.
func PadPointPlan(r *Runner, b *bench.Benchmark, setup Setup, values []uint64) *PointPlan[ChannelPoint] {
	return channelPlan(r, b, padChannel, setup, values)
}

// BasePointPlan is the point plan of an image-base sweep: the image
// linked at each of values. Zero means the linker default base.
func BasePointPlan(r *Runner, b *bench.Benchmark, setup Setup, values []uint64) *PointPlan[ChannelPoint] {
	return channelPlan(r, b, baseChannel, setup, values)
}

// PadSweepCheckpointed measures b's speedup at every inter-object padding
// in values, with journal-based checkpoint/resume; see
// EnvSweepCheckpointed for the journal and partial-result contract.
func PadSweepCheckpointed(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, values []uint64, ck Checkpoint) ([]ChannelPoint, error) {
	return PadPointPlan(r, b, setup, values).Sweep(ctx, ck)
}

// BaseSweepCheckpointed measures b's speedup at every image base in
// values, with journal-based checkpoint/resume.
func BaseSweepCheckpointed(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, values []uint64, ck Checkpoint) ([]ChannelPoint, error) {
	return BasePointPlan(r, b, setup, values).Sweep(ctx, ck)
}

// DefaultPadSizes returns the canonical padding sweep grid: instruction-
// granular steps through one cache line, then line-granular steps through a
// page, then page-granular steps to 32 KiB — dense where the alignment
// effects live, sparse where only set mappings move.
func DefaultPadSizes() []uint64 {
	var sizes []uint64
	for v := uint64(0); v < 64; v += 4 {
		sizes = append(sizes, v)
	}
	for v := uint64(64); v < 4096; v += 64 {
		sizes = append(sizes, v)
	}
	for v := uint64(4096); v <= 32768; v += 4096 {
		sizes = append(sizes, v)
	}
	return sizes
}

// DefaultTextBases returns the canonical image-base sweep grid: the linker
// default plus instruction-granular displacements through one cache line and
// page-granular displacements through 32 KiB — the reach of ASLR's
// contribution to text placement in this model.
func DefaultTextBases() []uint64 {
	base := uint64(linker.DefaultTextBase)
	var sizes []uint64
	for d := uint64(0); d < 64; d += 4 {
		sizes = append(sizes, base+d)
	}
	for d := uint64(4096); d <= 32768; d += 4096 {
		sizes = append(sizes, base+d)
	}
	return sizes
}
