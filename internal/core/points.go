package core

import (
	"context"
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
)

// PointPlan is the point plan of one checkpointable sweep or fixed-n
// estimate: point i is journalled under keys[i] and measured by measure.
// Every checkpointed sweep and estimate in this package builds one plan
// and runs it through the same checkpointed loop.
type PointPlan[T any] struct {
	kind    string // checkpoint namespace, and the sweep's name in errors
	bench   string
	keys    []string
	measure func(ctx context.Context, i int) (T, error)
	// fresh, when set, restores the parts of a replayed point the plan
	// regenerates anyway, so results never alias journal-owned data.
	fresh func(i int, p *T)
}

// Keys returns the checkpoint key of every point, in plan order. Two
// points may share a key (randomize draws can coincide); they are still
// distinct points.
func (p *PointPlan[T]) Keys() []string { return p.keys }

// Measure measures point i, refusing an index outside the plan.
func (p *PointPlan[T]) Measure(ctx context.Context, i int) (any, error) {
	if i < 0 || i >= len(p.keys) {
		return nil, fmt.Errorf("core: %s point index %d out of range [0,%d)", p.kind, i, len(p.keys))
	}
	return p.measure(ctx, i)
}

// run is the checkpointed measurement loop behind every sweep and
// estimate: it looks every point up in ck in plan order, measures the rest
// in parallel, and records each point as soon as it is measured, so an
// interrupted run resumes where it stopped and — measurements being
// deterministic — replays bit-identically. A nil ck disables
// checkpointing.
//
// On a measurement failure it returns the completed points, compacted in
// plan order, together with the error; a failed lookup returns no points.
func (p *PointPlan[T]) run(ctx context.Context, ck Checkpoint) ([]T, error) {
	points := make([]T, len(p.keys))
	done := make([]bool, len(p.keys))
	pending := make([]int, 0, len(p.keys))
	for i, key := range p.keys {
		if ck != nil {
			var v T
			ok, err := ck.Lookup(key, &v)
			if err != nil {
				return nil, err
			}
			if ok {
				if p.fresh != nil {
					p.fresh(i, &v)
				}
				points[i], done[i] = v, true
				continue
			}
		}
		pending = append(pending, i)
	}
	err := ForEach(ctx, len(pending), 0, func(ctx context.Context, pi int) error {
		i := pending[pi]
		v, err := p.measure(ctx, i)
		if err != nil {
			return err
		}
		if ck != nil {
			if err := ck.Record(p.keys[i], v); err != nil {
				return err
			}
		}
		points[i], done[i] = v, true
		return nil
	})
	if err != nil {
		return gatherDone(points, done), err
	}
	return points, nil
}

// Sweep runs the plan with checkpoint/resume through ck (nil disables
// it). On failure it returns the completed points (in sweep order, with
// the failed and unreached points explicitly absent) alongside an error
// that says how much is missing. Callers must treat such partial results
// as partial: they are never silently aggregated by any code in this
// package.
func (p *PointPlan[T]) Sweep(ctx context.Context, ck Checkpoint) ([]T, error) {
	points, err := p.run(ctx, ck)
	if err != nil && points != nil {
		return points, fmt.Errorf("core: %s sweep of %s incomplete (%d of %d points measured): %w",
			p.kind, p.bench, len(points), len(p.keys), err)
	}
	return points, err
}

// gatherDone compacts the completed points of an interrupted sweep,
// preserving sweep order. The gaps are *explicit*: the result's length
// tells the caller exactly how much is missing.
func gatherDone[T any](points []T, done []bool) []T {
	out := make([]T, 0, len(points))
	for i, ok := range done {
		if ok {
			out = append(out, points[i])
		}
	}
	return out
}

// speedupPlan builds the plan whose point i is b's O3-over-O2 speedup at
// setups[i], journalled under PointKey(kind, b.Name, setups[i]) and shaped
// into a T by point.
func speedupPlan[T any](r *Runner, b *bench.Benchmark, kind string, setups []Setup, point func(i int, speedup float64, base, opt *Measurement) T) *PointPlan[T] {
	keys := make([]string, len(setups))
	for i, s := range setups {
		keys[i] = PointKey(kind, b.Name, s)
	}
	return &PointPlan[T]{kind: kind, bench: b.Name, keys: keys,
		measure: func(ctx context.Context, i int) (T, error) {
			speedup, mb, mo, err := r.Speedup(ctx, b, setups[i], compiler.O2, compiler.O3)
			if err != nil {
				var zero T
				return zero, err
			}
			return point(i, speedup, mb, mo), nil
		}}
}
