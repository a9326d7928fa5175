package core

import (
	"context"
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
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

// measureChannelPoint measures one scalar-channel sweep point.
func measureChannelPoint(ctx context.Context, r *Runner, b *bench.Benchmark, spec channelSpec, setup Setup, value uint64) (ChannelPoint, error) {
	s := spec.apply(setup, value)
	speedup, mb, mo, err := r.Speedup(ctx, b, s, compiler.O2, compiler.O3)
	if err != nil {
		return ChannelPoint{}, err
	}
	return ChannelPoint{
		Value:      value,
		CyclesBase: mb.Cycles,
		CyclesOpt:  mo.Cycles,
		Speedup:    speedup,
	}, nil
}

// MeasurePadPoint measures one text-padding sweep point: b's O3-over-O2
// speedup with setup's inter-object padding forced to value bytes. The
// shard-execution primitive for distributed pad sweeps.
func MeasurePadPoint(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, value uint64) (ChannelPoint, error) {
	return measureChannelPoint(ctx, r, b, padChannel, setup, value)
}

// MeasureBasePoint measures one image-base sweep point: b's O3-over-O2
// speedup with the image linked at the given base address. Zero means the
// linker default base.
func MeasureBasePoint(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, value uint64) (ChannelPoint, error) {
	return measureChannelPoint(ctx, r, b, baseChannel, setup, value)
}

// channelSweepCheckpointed is the shared body of PadSweepCheckpointed and
// BaseSweepCheckpointed; see EnvSweepCheckpointed for the journal and
// partial-result contract.
func channelSweepCheckpointed(ctx context.Context, r *Runner, b *bench.Benchmark, spec channelSpec, setup Setup, values []uint64, ck Checkpoint) ([]ChannelPoint, error) {
	points := make([]ChannelPoint, len(values))
	done := make([]bool, len(values))
	pending := make([]int, 0, len(values))
	for i, v := range values {
		if ck != nil {
			var p ChannelPoint
			ok, err := ck.Lookup(sweepKey(spec.kind, b.Name, spec.apply(setup, v)), &p)
			if err != nil {
				return nil, err
			}
			if ok {
				points[i], done[i] = p, true
				continue
			}
		}
		pending = append(pending, i)
	}
	err := ForEach(ctx, len(pending), 0, func(ctx context.Context, pi int) error {
		i := pending[pi]
		p, err := measureChannelPoint(ctx, r, b, spec, setup, values[i])
		if err != nil {
			return err
		}
		if ck != nil {
			if err := ck.Record(sweepKey(spec.kind, b.Name, spec.apply(setup, values[i])), p); err != nil {
				return err
			}
		}
		points[i], done[i] = p, true
		return nil
	})
	if err != nil {
		completed := gatherDone(points, done)
		return completed, fmt.Errorf("core: %s sweep of %s incomplete (%d of %d points measured): %w",
			spec.kind, b.Name, len(completed), len(values), err)
	}
	return points, nil
}

// PadSweep measures b's speedup at every inter-object padding in values.
func PadSweep(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, values []uint64) ([]ChannelPoint, error) {
	return PadSweepCheckpointed(ctx, r, b, setup, values, nil)
}

// PadSweepCheckpointed is PadSweep with journal-based checkpoint/resume.
func PadSweepCheckpointed(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, values []uint64, ck Checkpoint) ([]ChannelPoint, error) {
	return channelSweepCheckpointed(ctx, r, b, padChannel, setup, values, ck)
}

// BaseSweep measures b's speedup at every image base in values.
func BaseSweep(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, values []uint64) ([]ChannelPoint, error) {
	return BaseSweepCheckpointed(ctx, r, b, setup, values, nil)
}

// BaseSweepCheckpointed is BaseSweep with journal-based checkpoint/resume.
func BaseSweepCheckpointed(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, values []uint64, ck Checkpoint) ([]ChannelPoint, error) {
	return channelSweepCheckpointed(ctx, r, b, baseChannel, setup, values, ck)
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
