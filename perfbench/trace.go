package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
	"biaslab/internal/obj"
	"biaslab/internal/server"
	"biaslab/internal/stats"
	"biaslab/internal/tenancy"
)

// maxInstructions is core.Runner's default per-run instruction bound.
const maxInstructions = 1 << 31

// tracer accumulates, for one traced pass, the calls and busy time of
// every span recorded around a call into a layer, plus summed values.
// All methods are safe on a nil tracer (untraced passes) and for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	calls map[string]uint64
	busy  map[string]time.Duration
	vals  map[string]float64
}

func newTracer() *tracer {
	return &tracer{calls: map[string]uint64{}, busy: map[string]time.Duration{}, vals: map[string]float64{}}
}

// span records one call of the named span that started at t0.
func (t *tracer) span(name string, t0 time.Time) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	t.mu.Lock()
	t.calls[name]++
	t.busy[name] += d
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vals[name] += v
	t.mu.Unlock()
}

func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.vals[name] = v
	t.mu.Unlock()
}

// layers converts the pass's spans and values into the per-layer metrics.
func (t *tracer) layers() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := func(span string) float64 { return float64(t.busy[span]) / float64(time.Millisecond) }
	n := func(span string) float64 { return float64(t.calls[span]) }
	l := map[string]float64{
		"machine.run_calls":        n("machine.run"),
		"machine.run_ms":           ms("machine.run"),
		"loader.load_calls":        n("loader.load"),
		"loader.load_ms":           ms("loader.load"),
		"loader.release_ms":        ms("loader.release"),
		"compiler.calls":           n("compiler"),
		"compiler.busy_ms":         ms("compiler"),
		"linker.calls":             n("linker"),
		"linker.busy_ms":           ms("linker"),
		"tenancy.corun_calls":      n("tenancy.corun"),
		"tenancy.corun_ms":         ms("tenancy.corun"),
		"tenancy.coimage_alloc_mb": t.vals["tenancy.coimage_alloc"] / (1 << 20),
		"stats.ci_ms":              ms("stats.ci"),
		"audit.calls":              n("audit"),
		"audit.busy_ms":            ms("audit"),
		"server.submit_ms":         ms("server.submit"),
		"server.result_ms":         ms("server.result"),
		"journal.records":          n("journal.record"),
		"journal.record_ms":        ms("journal.record"),
	}
	if run := ms("machine.run"); run > 0 {
		l["machine.minstr_per_s"] = t.vals["machine.instructions"] / run / 1e3
	}
	if calls := n("audit"); calls > 0 {
		l["audit.repeat_ratio"] = t.vals["audit.repeats"] / calls
	}
	for name, v := range t.vals {
		if _, derived := l[name]; !derived {
			l[name] = v
		}
	}
	out := map[string]float64{}
	for _, name := range layerMetricNames() {
		out[name] = l[name]
	}
	return out
}

// unmeasured explains, per workload, the per-layer metrics a traced run
// reports as 0 because the work is not reachable from outside the program.
func unmeasured(workload string) []string {
	if workload != "daemon-mixed" {
		return []string{"audit.*, server.*, journal.* are 0: local workloads run no daemon, no audit and no journal"}
	}
	return []string{
		"machine.*, loader.*, compiler.*, linker.*, tenancy.*, stats.* are 0: the daemon runs them inside its own core.Runner, which has no timing hook; core.measurements and machine.instructions come from /metrics",
		"server.queue_wait_ms, server.execute_ms are 0: job events carry no server time, and the event stream replays past events to a late subscriber, so a client cannot tell queue wait from execution; server.write_wait_ms is their sum as the client sees it (submit response to done event)",
	}
}

// memo computes a value at most once, even under concurrency.
type memo[T any] struct {
	once sync.Once
	v    T
	err  error
}

// pipeline re-composes core.Runner's measurement path from the layers'
// public functions — compiler.Compile, linker.Link, loader.Load,
// (*machine.Machine).RunCtx, (*loader.Image).Release and tenancy.CoRun —
// with a span around each call. Like a fresh Runner it compiles each
// (benchmark, config) and links each layout once, and pools machines.
type pipeline struct {
	size bench.Size
	tr   *tracer
	wk   *work

	mu   sync.Mutex
	objs map[string]*memo[[]*obj.Object]
	exes map[string]*memo[*linker.Executable]
	idle map[string][]*machine.Machine
	sums map[string]uint64 // benchmark → checksum every setup must reproduce
}

func newPipeline(size bench.Size, tr *tracer, wk *work) *pipeline {
	return &pipeline{
		size: size, tr: tr, wk: wk,
		objs: map[string]*memo[[]*obj.Object]{},
		exes: map[string]*memo[*linker.Executable]{},
		idle: map[string][]*machine.Machine{},
		sums: map[string]uint64{},
	}
}

func memoFor[T any](mu *sync.Mutex, m map[string]*memo[T], key string) *memo[T] {
	mu.Lock()
	defer mu.Unlock()
	e, ok := m[key]
	if !ok {
		e = &memo[T]{}
		m[key] = e
	}
	return e
}

func (p *pipeline) executable(b *bench.Benchmark, s core.Setup) (*linker.Executable, error) {
	oe := memoFor(&p.mu, p.objs, b.Name+"|"+s.Compiler.String())
	oe.once.Do(func() {
		t0 := time.Now()
		oe.v, _, oe.err = compiler.Compile(b.Sources(p.size), s.Compiler)
		p.tr.span("compiler", t0)
	})
	if oe.err != nil {
		return nil, oe.err
	}
	key := fmt.Sprintf("%s|%s|%v|%d|%d", b.Name, s.Compiler, s.LinkOrder, s.TextPad, s.TextBase)
	le := memoFor(&p.mu, p.exes, key)
	le.once.Do(func() {
		ordered := oe.v
		if s.LinkOrder != nil {
			if !core.ValidOrder(s.LinkOrder, len(oe.v)) {
				le.err = fmt.Errorf("invalid link order %v", s.LinkOrder)
				return
			}
			ordered = make([]*obj.Object, len(oe.v))
			for i, src := range s.LinkOrder {
				ordered[i] = oe.v[src]
			}
		}
		t0 := time.Now()
		le.v, le.err = linker.Link(ordered, linker.Options{PadObjects: s.TextPad, TextBase: s.TextBase})
		p.tr.span("linker", t0)
	})
	return le.v, le.err
}

func (p *pipeline) load(exe *linker.Executable, opts loader.Options) (*loader.Image, error) {
	t0 := time.Now()
	img, err := loader.Load(exe, opts)
	p.tr.span("loader.load", t0)
	return img, err
}

func (p *pipeline) release(imgs ...*loader.Image) {
	t0 := time.Now()
	for _, img := range imgs {
		img.Release()
	}
	p.tr.span("loader.release", t0)
}

// checkOracle enforces the Runner's invariant: a benchmark's output is the
// same under every setup.
func (p *pipeline) checkOracle(name string, sum uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if want, ok := p.sums[name]; ok && want != sum {
		return fmt.Errorf("%s produced checksum %d, expected %d", name, sum, want)
	}
	p.sums[name] = sum
	return nil
}

func (p *pipeline) machine(name string) (*machine.Machine, error) {
	p.mu.Lock()
	if pool := p.idle[name]; len(pool) > 0 {
		m := pool[len(pool)-1]
		p.idle[name] = pool[:len(pool)-1]
		p.mu.Unlock()
		return m, nil
	}
	p.mu.Unlock()
	cfg, ok := machine.ConfigByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", name)
	}
	return machine.New(cfg), nil
}

// measure runs b under s and returns its cycles.
func (p *pipeline) measure(ctx context.Context, b *bench.Benchmark, s core.Setup) (uint64, error) {
	exe, err := p.executable(b, s)
	if err != nil {
		return 0, err
	}
	env := s.EnvBytes
	if env == 0 {
		env = core.DefaultEnvBytes
	}
	img, err := p.load(exe, loader.Options{Env: loader.SyntheticEnv(env), Args: []string{b.Name}, StackShift: s.StackShift})
	if err != nil {
		return 0, err
	}
	p.tr.add("core.measurements", 1)
	if s.CoRunner.IsZero() {
		m, err := p.machine(s.Machine)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := m.RunCtx(ctx, img, maxInstructions)
		p.tr.span("machine.run", t0)
		if err != nil {
			return 0, err
		}
		p.mu.Lock()
		p.idle[s.Machine] = append(p.idle[s.Machine], m)
		p.mu.Unlock()
		if err := p.checkOracle(b.Name, res.Checksum); err != nil {
			return 0, err
		}
		p.release(img)
		p.tr.add("machine.instructions", float64(res.Counters.Instructions))
		p.wk.mu.Lock()
		p.wk.measurements++
		p.wk.soloInstr += res.Counters.Instructions
		p.wk.mu.Unlock()
		return res.Counters.Cycles, nil
	}

	coSetup, err := core.CoRunnerSetup(s)
	if err != nil {
		return 0, err
	}
	coB, ok := bench.ByName(s.CoRunner.Bench)
	if !ok {
		return 0, fmt.Errorf("unknown co-runner %q", s.CoRunner.Bench)
	}
	coExe, err := p.executable(coB, coSetup)
	if err != nil {
		return 0, err
	}
	a0 := heapAlloc()
	coImg, err := p.load(coExe, tenancy.CoRunnerLoadOptions(loader.SyntheticEnv(coSetup.EnvBytes), []string{coB.Name}))
	p.tr.add("tenancy.coimage_alloc", float64(heapAlloc()-a0))
	if err != nil {
		return 0, err
	}
	cfg, ok := machine.ConfigByName(s.Machine)
	if !ok {
		return 0, fmt.Errorf("unknown machine %q", s.Machine)
	}
	t0 := time.Now()
	subj, co, err := tenancy.CoRun(ctx, cfg, img, coImg, s.CoRunner.Quantum, maxInstructions)
	p.tr.span("tenancy.corun", t0)
	if err != nil {
		return 0, err
	}
	if err := p.checkOracle(b.Name, subj.Checksum); err != nil {
		return 0, err
	}
	if err := p.checkOracle(coB.Name, co.Checksum); err != nil {
		return 0, err
	}
	p.release(coImg, img)
	both := subj.Counters.Instructions + co.Counters.Instructions
	p.tr.add("tenancy.instructions", float64(both))
	p.wk.mu.Lock()
	p.wk.measurements++
	p.wk.coSubject += both
	p.wk.mu.Unlock()
	return subj.Counters.Cycles, nil
}

// speedup measures b under s at O2 and O3, as core.Runner.Speedup does.
func (p *pipeline) speedup(ctx context.Context, b *bench.Benchmark, s core.Setup) (uint64, uint64, error) {
	base, err := p.measure(ctx, b, s.WithLevel(compiler.O2))
	if err != nil {
		return 0, 0, err
	}
	opt, err := p.measure(ctx, b, s.WithLevel(compiler.O3))
	return base, opt, err
}

// tracedExecute computes a local spec's points through the traced
// pipeline, with core.ForEach's concurrency as the program's sweeps use,
// then has server.Execute assemble the result from those points (a replay
// that must measure nothing), so the traced result bytes come from the
// program's own assembly code.
func tracedExecute(ls localSpec, tr *tracer, wk *work) (*server.Result, error) {
	ctx := context.Background()
	base, b, err := server.BaseSetup(ls.spec)
	if err != nil {
		return nil, err
	}
	p := newPipeline(ls.size, tr, wk)
	ck := &memCheckpoint{m: map[string]json.RawMessage{}}
	var setups []core.Setup
	switch ls.spec.Kind {
	case server.KindSweepEnv:
		for _, sz := range core.DefaultEnvSizes(ls.spec.Step) {
			s := base
			s.EnvBytes = sz
			setups = append(setups, s)
		}
	case server.KindRandomize:
		setups = randomSetups(ls, base, b)
	default:
		return nil, fmt.Errorf("traced execution of kind %s is not supported", ls.spec.Kind)
	}
	err = core.ForEach(ctx, len(setups), 0, func(ctx context.Context, i int) error {
		s := setups[i]
		cb, co, err := p.speedup(ctx, b, s)
		if err != nil {
			return err
		}
		sp := float64(cb) / float64(co)
		if ls.spec.Kind == server.KindSweepEnv {
			return ck.Record(core.PointKey("env", b.Name, s), core.EnvPoint{EnvBytes: s.EnvBytes, CyclesBase: cb, CyclesOpt: co, Speedup: sp})
		}
		return ck.Record(core.PointKey("rand", b.Name, s), core.RandomPoint{Speedup: sp})
	})
	if err != nil {
		return nil, err
	}

	replay := &work{}
	r := core.NewRunner(ls.size)
	r.OnMeasure = replay.observe
	res, err := server.Execute(ctx, r, ls.spec, ck, nil)
	if err != nil {
		return nil, err
	}
	if replay.measurements != 0 {
		return nil, fmt.Errorf("%s: assembling the traced points re-measured %d setups: the traced pipeline missed points", ls.label, replay.measurements)
	}
	if res.Randomize != nil {
		if err := traceStats(ls, setups, res.Randomize.Estimate, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceStats times the randomize estimate's interval and sign test
// (stats.HierarchicalCI, stats.SpeedupTest) on the same inputs the program
// used, and checks they reproduce the result's.
func traceStats(ls localSpec, setups []core.Setup, est core.RobustEstimate, tr *tracer) error {
	groups := [][]float64{}
	seedParts := []string{"hier", est.Benchmark, est.Machine, fmt.Sprintf("%d/%d", est.N, ls.spec.Seed)}
	if ls.spec.CoRandom {
		byTenant := map[string][]float64{}
		for i, s := range setups {
			t := core.TenantIdle
			if !s.CoRunner.IsZero() {
				t = s.CoRunner.Bench
			}
			byTenant[t] = append(byTenant[t], est.Speedups[i])
		}
		tenants := make([]string, 0, len(byTenant))
		for t := range byTenant {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			groups = append(groups, byTenant[t])
		}
		seedParts[0] = "hier-tenant"
	} else {
		for i := range est.Speedups {
			groups = append(groups, est.Speedups[i:i+1])
		}
	}
	t0 := time.Now()
	hier := stats.HierarchicalCI(groups, 0.95, 1000, stats.NewRNG(stats.SeedFrom(seedParts...)))
	test := stats.SpeedupTest(est.Speedups, 0.95)
	tr.span("stats.ci", t0)
	if hier != est.HierCI || !reflect.DeepEqual(test, est.Test) {
		return fmt.Errorf("%s: re-computed interval %v / test %+v differ from the result's %v / %+v", ls.label, hier, test, est.HierCI, est.Test)
	}
	return nil
}
