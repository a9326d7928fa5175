package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/faultinject"
	"biaslab/internal/ir"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
	"biaslab/internal/obj"
	"biaslab/internal/tenancy"
)

// Measurement is the outcome of running one benchmark under one setup.
type Measurement struct {
	Setup    Setup
	Cycles   uint64
	Counters machine.Counters
	Checksum uint64
}

// Runner executes benchmarks under setups. It caches compiled objects per
// (benchmark, compiler config) — compilation does not depend on environment
// or link order — and linked executables per (benchmark, config, link
// order, padding) — linking does not depend on the environment either, so
// an env sweep links once — and reuses pooled machine instances per model. A Runner also enforces the metamorphic invariant at
// the heart of the paper: across every setup, a benchmark's *output*
// (checksum) must be bit-identical even though its *cycles* differ; any
// violation is a toolchain bug and is reported as an error.
type Runner struct {
	Size bench.Size
	// MaxInstructions bounds each run (0 = default).
	MaxInstructions uint64
	// OnMeasure, when non-nil, observes every successful measurement just
	// before it is returned — the accounting hook behind biaslabd's
	// instructions-retired and measurement counters. It is called from
	// whichever goroutine ran the measurement, so it must be safe for
	// concurrent use, must not block, and must not mutate its argument. Set
	// it before the Runner's first use.
	OnMeasure func(*Measurement)

	mu        sync.Mutex
	objCache  map[objKey][]*obj.Object
	progCache map[objKey]*ir.Program     // IR kept alongside objects for the bias oracle
	compiling map[objKey]*sync.WaitGroup // in-flight compiles (singleflight)
	linkCache map[linkKey]*linker.Executable
	linking   map[linkKey]*sync.WaitGroup   // in-flight links (singleflight)
	machines  map[string][]*machine.Machine // idle pool per model
	custom    map[string]machine.Config     // RegisterMachine configs
	oracles   map[string]uint64             // benchmark → expected checksum
}

type objKey struct {
	bench string
	cfg   compiler.Config
}

// linkKey identifies one linked executable: linking depends only on the
// compiled objects (benchmark × compiler config), the unit order, and the
// inter-object padding — not on the environment, which is why an env sweep
// can reuse one executable across all its points.
type linkKey struct {
	bench string
	cfg   compiler.Config
	order string // LinkOrder encoded as text ([]int is not comparable)
	pad   uint64
	base  uint64
}

// orderKey encodes a link order for use in a map key.
func orderKey(order []int) string {
	if order == nil {
		return ""
	}
	b := make([]byte, 0, 3*len(order))
	for _, v := range order {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}

// linkCacheCap bounds the executable cache. A full link-order study is
// hundreds of permutations per (benchmark, config); eviction is arbitrary
// because the cache is pure memoization — a re-link is deterministic.
const linkCacheCap = 512

// NewRunner builds a runner at the given workload size. A Runner is safe
// for concurrent use: machines are pooled per model, compiled objects are
// cached under a lock, and measurements are deterministic regardless of
// scheduling (every run fully resets its machine).
func NewRunner(size bench.Size) *Runner {
	return &Runner{
		Size:            size,
		MaxInstructions: 1 << 31,
		objCache:        map[objKey][]*obj.Object{},
		progCache:       map[objKey]*ir.Program{},
		compiling:       map[objKey]*sync.WaitGroup{},
		linkCache:       map[linkKey]*linker.Executable{},
		linking:         map[linkKey]*sync.WaitGroup{},
		machines:        map[string][]*machine.Machine{},
		oracles:         map[string]uint64{},
	}
}

// objects compiles (or fetches cached) objects for b under cfg, compiling
// each (benchmark, config) at most once even under concurrency.
func (r *Runner) objects(b *bench.Benchmark, cfg compiler.Config) ([]*obj.Object, error) {
	key := objKey{bench: b.Name, cfg: cfg}
	for {
		r.mu.Lock()
		if objs, ok := r.objCache[key]; ok {
			r.mu.Unlock()
			return objs, nil
		}
		if wg, inflight := r.compiling[key]; inflight {
			r.mu.Unlock()
			wg.Wait()
			continue // cache now populated (or compile failed; retry compiles)
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		r.compiling[key] = wg
		r.mu.Unlock()

		objs, prog, err := compiler.Compile(b.Sources(r.Size), cfg)
		r.mu.Lock()
		delete(r.compiling, key)
		if err == nil {
			r.objCache[key] = objs
			r.progCache[key] = prog
		}
		r.mu.Unlock()
		wg.Done()
		if err != nil {
			return nil, fmt.Errorf("core: compiling %s with %s: %w", b.Name, cfg, err)
		}
		return objs, nil
	}
}

// program returns the cached IR program for (b, cfg), compiling if needed.
// The oracle uses it to size address-taken frame slots exactly; predictions
// from a nil program would merely be flagged approximate.
func (r *Runner) program(b *bench.Benchmark, cfg compiler.Config) (*ir.Program, error) {
	if _, err := r.objects(b, cfg); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progCache[objKey{bench: b.Name, cfg: cfg}], nil
}

// linked returns the executable for b's objects under the given order and
// padding, linking each distinct (benchmark, config, order, pad) at most
// once even under concurrency — the same singleflight discipline as
// objects(). Executables are immutable after linking, so a cached one is
// safely shared by concurrent loads.
func (r *Runner) linked(b *bench.Benchmark, setup Setup, ordered []*obj.Object) (*linker.Executable, error) {
	key := linkKey{
		bench: b.Name,
		cfg:   setup.Compiler,
		order: orderKey(setup.LinkOrder),
		pad:   setup.TextPad,
		base:  setup.TextBase,
	}
	for {
		r.mu.Lock()
		if exe, ok := r.linkCache[key]; ok {
			r.mu.Unlock()
			return exe, nil
		}
		if wg, inflight := r.linking[key]; inflight {
			r.mu.Unlock()
			wg.Wait()
			continue // cache now populated (or link failed; retry links)
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		r.linking[key] = wg
		r.mu.Unlock()

		exe, err := linker.Link(ordered, linker.Options{PadObjects: setup.TextPad, TextBase: setup.TextBase})
		r.mu.Lock()
		delete(r.linking, key)
		if err == nil {
			if len(r.linkCache) >= linkCacheCap {
				//determlint:allow cache eviction choice never reaches a measurement
				for k := range r.linkCache {
					delete(r.linkCache, k)
					break
				}
			}
			r.linkCache[key] = exe
		}
		r.mu.Unlock()
		wg.Done()
		if err != nil {
			return nil, fmt.Errorf("core: linking %s: %w", b.Name, err)
		}
		return exe, nil
	}
}

// acquireMachine takes an idle machine for the named model from the pool,
// constructing one if none is free.
func (r *Runner) acquireMachine(name string) (*machine.Machine, error) {
	r.mu.Lock()
	pool := r.machines[name]
	if n := len(pool); n > 0 {
		m := pool[n-1]
		r.machines[name] = pool[:n-1]
		r.mu.Unlock()
		return m, nil
	}
	cfg, registered := r.custom[name]
	r.mu.Unlock()
	if !registered {
		var ok bool
		cfg, ok = machine.ConfigByName(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown machine %q", name)
		}
	}
	return machine.New(cfg), nil
}

// releaseMachine returns a machine to the pool.
func (r *Runner) releaseMachine(name string, m *machine.Machine) {
	r.mu.Lock()
	r.machines[name] = append(r.machines[name], m)
	r.mu.Unlock()
}

// UnitNames returns the names of b's translation units in default order.
func (r *Runner) UnitNames(b *bench.Benchmark) []string {
	srcs := b.Sources(r.Size)
	names := make([]string, len(srcs))
	for i, s := range srcs {
		names[i] = s.Name
	}
	return names
}

// Executable compiles and links b exactly as Measure would under setup —
// same caches, same ordering, same padding — without loading or running
// anything. It is the entry point for static analyses (the bias oracle)
// that must reason about the very image the measurements execute.
func (r *Runner) Executable(b *bench.Benchmark, setup Setup) (*linker.Executable, error) {
	objs, err := r.objects(b, setup.Compiler)
	if err != nil {
		return nil, err
	}
	ordered := objs
	if setup.LinkOrder != nil {
		if !ValidOrder(setup.LinkOrder, len(objs)) {
			return nil, fmt.Errorf("core: invalid link order %v for %d units", setup.LinkOrder, len(objs))
		}
		ordered = make([]*obj.Object, len(objs))
		for i, src := range setup.LinkOrder {
			ordered[i] = objs[src]
		}
	}
	return r.linked(b, setup, ordered)
}

// Measure runs benchmark b under setup and returns the measurement. The
// context cancels the measurement cooperatively: compilation and linking
// finish their current unit, and the simulated machine abandons the run at
// the next cancellation poll.
func (r *Runner) Measure(ctx context.Context, b *bench.Benchmark, setup Setup) (*Measurement, error) {
	meas, err := r.measure(ctx, b, setup, false)
	if err != nil {
		return nil, err
	}
	return meas.m, nil
}

// checkOracle enforces output stability across setups.
func (r *Runner) checkOracle(name string, checksum uint64, setup Setup) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if want, ok := r.oracles[name]; ok {
		if checksum != want {
			return fmt.Errorf("core: %s produced checksum %d under %s, expected %d — experimental setup changed program OUTPUT, which must never happen", name, checksum, setup, want)
		}
		return nil
	}
	r.oracles[name] = checksum
	return nil
}

// Speedup measures b at two optimization levels under otherwise identical
// setup and returns cycles(base)/cycles(opt) — the quantity the paper's
// figures plot (>1 means opt is faster).
func (r *Runner) Speedup(ctx context.Context, b *bench.Benchmark, setup Setup, base, opt compiler.Level) (float64, *Measurement, *Measurement, error) {
	mb, err := r.Measure(ctx, b, setup.WithLevel(base))
	if err != nil {
		return 0, nil, nil, err
	}
	mo, err := r.Measure(ctx, b, setup.WithLevel(opt))
	if err != nil {
		return 0, nil, nil, err
	}
	return float64(mb.Cycles) / float64(mo.Cycles), mb, mo, nil
}

// MeasureProfiled is Measure plus per-function cycle attribution. It is
// the instrument behind "where did the extra cycles go?" questions in
// causal analysis.
func (r *Runner) MeasureProfiled(ctx context.Context, b *bench.Benchmark, setup Setup) (*Measurement, machine.Profile, error) {
	meas, err := r.measure(ctx, b, setup, true)
	if err != nil {
		return nil, nil, err
	}
	return meas.m, meas.profile, nil
}

// measured bundles a measurement with its optional profile.
type measured struct {
	m       *Measurement
	profile machine.Profile
}

// runStage executes one measurement stage under the runner's fault
// boundary: a panic inside fn (bad geometry, malformed image, injected
// fault) is recovered into a *PanicError instead of tearing down the whole
// sweep, a failure that marks itself transient (see IsTransient) is
// retried exactly once, and any final error is wrapped in a
// *MeasurementError carrying the stage and the complete setup. Pooled
// resources are deliberately NOT recycled on panic — a machine or image in
// an unknown state is dropped, never handed to the next measurement.
func runStage(stage Stage, benchName string, setup Setup, fn func() error) error {
	attempt := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &PanicError{Value: p, Stack: debug.Stack()}
			}
		}()
		return fn()
	}
	err := attempt()
	attempts := 1
	if err != nil && IsTransient(err) {
		err = attempt()
		attempts = 2
	}
	if err == nil {
		return nil
	}
	return &MeasurementError{Stage: stage, Benchmark: benchName, Setup: setup, Cause: err, Attempts: attempts}
}

// setupID is the fault-injection key of one (benchmark, setup) — rendered
// once per measurement instead of once per stage, since Setup.String is a
// handful of allocations and the hot sweep path runs four stages per point.
func setupID(b *bench.Benchmark, setup Setup) string {
	return b.Name + "/" + setup.String()
}

// stagedExecutable runs the compile and link stages for (b, setup) behind
// the runStage fault boundary — the shared front half of measure and
// measureCoRun. sid must be setupID(b, setup).
func (r *Runner) stagedExecutable(b *bench.Benchmark, setup Setup, sid string) (*linker.Executable, error) {
	var objs []*obj.Object
	if err := runStage(StageCompile, b.Name, setup, func() error {
		if err := faultinject.Check("compile", b.Name+"/"+setup.Compiler.String()); err != nil {
			return err
		}
		var err error
		objs, err = r.objects(b, setup.Compiler)
		return err
	}); err != nil {
		return nil, err
	}

	var exe *linker.Executable
	if err := runStage(StageLink, b.Name, setup, func() error {
		if err := faultinject.Check("link", sid); err != nil {
			return err
		}
		ordered := objs
		if setup.LinkOrder != nil {
			if !ValidOrder(setup.LinkOrder, len(objs)) {
				return fmt.Errorf("core: invalid link order %v for %d units", setup.LinkOrder, len(objs))
			}
			ordered = make([]*obj.Object, len(objs))
			for i, src := range setup.LinkOrder {
				ordered[i] = objs[src]
			}
		}
		var err error
		exe, err = r.linked(b, setup, ordered)
		return err
	}); err != nil {
		return nil, err
	}
	return exe, nil
}

// stagedLoad runs the load stage behind the runStage fault boundary. sid
// must be setupID(b, setup).
func (r *Runner) stagedLoad(b *bench.Benchmark, setup Setup, sid string, exe *linker.Executable) (*loader.Image, error) {
	var img *loader.Image
	if err := runStage(StageLoad, b.Name, setup, func() error {
		if err := faultinject.Check("load", sid); err != nil {
			return err
		}
		envBytes := setup.EnvBytes
		if envBytes == 0 {
			envBytes = DefaultEnvBytes
		}
		var err error
		img, err = loader.Load(exe, loader.Options{
			Env:        loader.SyntheticEnv(envBytes),
			Args:       []string{b.Name},
			StackShift: setup.StackShift,
		})
		if err != nil {
			return fmt.Errorf("core: loading %s: %w", b.Name, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return img, nil
}

// measure contains the shared body of Measure and MeasureProfiled: the
// four-stage pipeline (compile, link, load, measure), each stage behind
// the runStage fault boundary and a fault-injection hook.
func (r *Runner) measure(ctx context.Context, b *bench.Benchmark, setup Setup, profiled bool) (*measured, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sid := setupID(b, setup)
	exe, err := r.stagedExecutable(b, setup, sid)
	if err != nil {
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	img, err := r.stagedLoad(b, setup, sid, exe)
	if err != nil {
		return nil, err
	}

	var res *machine.Result
	if !setup.CoRunner.IsZero() {
		if profiled {
			return nil, fmt.Errorf("core: profiling is not supported under a co-runner")
		}
		res, err = r.measureCoRun(ctx, b, setup, sid, img)
		if err != nil {
			// The image is dropped, not released (see below).
			return nil, err
		}
	} else if err := runStage(StageMeasure, b.Name, setup, func() error {
		if err := faultinject.Check("measure", sid); err != nil {
			return err
		}
		m, err := r.acquireMachine(setup.Machine)
		if err != nil {
			return err
		}
		m.EnableProfiling(profiled)
		res, err = m.RunCtx(ctx, img, r.MaxInstructions)
		m.EnableProfiling(false)
		r.releaseMachine(setup.Machine, m)
		if err != nil {
			return fmt.Errorf("core: running %s: %w", b.Name, err)
		}
		return r.checkOracle(b.Name, res.Checksum, setup)
	}); err != nil {
		// The image is dropped, not released: a failed or abandoned run may
		// leave it in an unknown state, and the pool must only ever see
		// pristine buffers.
		return nil, err
	}
	// The run is over and nothing retains the image's memory (results copy
	// what they need), so its buffer can be recycled for the next load.
	img.Release()

	out := &measured{
		m: &Measurement{
			Setup:    setup,
			Cycles:   res.Counters.Cycles,
			Counters: res.Counters,
			Checksum: res.Checksum,
		},
		profile: res.Profile,
	}
	if r.OnMeasure != nil {
		r.OnMeasure(out.m)
	}
	return out, nil
}

// CoRunnerSetup derives the co-runner's own complete Setup from the
// subject's: same machine model and compiler personality, the co-runner's
// own optimization level (default O2), a default environment, and the
// displaced text base of the tenancy address-space plan. Everything else
// stays at channel-off defaults — the co-runner is a fixed background
// load, not a second experiment.
func CoRunnerSetup(setup Setup) (Setup, error) {
	level := compiler.O2
	if setup.CoRunner.Level != "" {
		l, err := compiler.ParseLevel(setup.CoRunner.Level)
		if err != nil {
			return Setup{}, fmt.Errorf("core: co-runner level: %w", err)
		}
		level = l
	}
	return Setup{
		Machine:  setup.Machine,
		Compiler: compiler.Config{Level: level, Personality: setup.Compiler.Personality},
		EnvBytes: DefaultEnvBytes,
		TextBase: linker.DefaultTextBase + tenancy.CoRunnerOffset,
	}, nil
}

// measureCoRun is the StageMeasure path for setups with a co-runner: it
// builds the co-runner's image through the same staged, fault-bounded
// compile/link/load pipeline (and the same caches) as any subject, then
// steps both tenants through one shared hierarchy. The returned result is
// the subject's; the co-runner's result is consumed here for its oracle
// check — interference must change either tenant's timing only, never
// its output.
func (r *Runner) measureCoRun(ctx context.Context, b *bench.Benchmark, setup Setup, sid string, subject *loader.Image) (*machine.Result, error) {
	coBench, ok := bench.ByName(setup.CoRunner.Bench)
	if !ok {
		return nil, fmt.Errorf("core: unknown co-runner benchmark %q", setup.CoRunner.Bench)
	}
	coSetup, err := CoRunnerSetup(setup)
	if err != nil {
		return nil, err
	}
	coSid := setupID(coBench, coSetup)
	coExe, err := r.stagedExecutable(coBench, coSetup, coSid)
	if err != nil {
		return nil, err
	}
	var coImg *loader.Image
	if err := runStage(StageLoad, coBench.Name, coSetup, func() error {
		if err := faultinject.Check("load", coSid); err != nil {
			return err
		}
		var err error
		coImg, err = loader.Load(coExe, tenancy.CoRunnerLoadOptions(
			loader.SyntheticEnv(coSetup.EnvBytes), []string{coBench.Name}))
		if err != nil {
			return fmt.Errorf("core: loading co-runner %s: %w", coBench.Name, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var res *machine.Result
	if err := runStage(StageMeasure, b.Name, setup, func() error {
		if err := faultinject.Check("measure", sid); err != nil {
			return err
		}
		cfg, err := r.machineConfig(setup.Machine)
		if err != nil {
			return err
		}
		subjRes, coRes, err := tenancy.CoRun(ctx, cfg, subject, coImg, setup.CoRunner.Quantum, r.MaxInstructions)
		if err != nil {
			return fmt.Errorf("core: co-running %s with %s: %w", b.Name, coBench.Name, err)
		}
		if err := r.checkOracle(b.Name, subjRes.Checksum, setup); err != nil {
			return err
		}
		if err := r.checkOracle(coBench.Name, coRes.Checksum, coSetup); err != nil {
			return err
		}
		res = subjRes
		return nil
	}); err != nil {
		// Both images are dropped, not released, on failure.
		return nil, err
	}
	coImg.Release()
	return res, nil
}

// RegisterMachine makes a custom machine configuration available under the
// given name — the hook for mechanism-ablation studies (e.g. "a Pentium 4
// without 4 KiB aliasing") that pin down which microarchitectural features
// carry each bias channel. The configuration is validated here, at the
// boundary, so a malformed geometry is a returned error instead of a panic
// in the middle of a sweep when the first machine is constructed.
// Re-registering a name purges that name's idle-machine pool: pooled
// machines were built from the previous config, and handing one out for a
// measurement under the new config would silently measure the wrong model.
func (r *Runner) RegisterMachine(name string, cfg machine.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: registering machine %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.custom == nil {
		r.custom = map[string]machine.Config{}
	}
	r.custom[name] = cfg
	delete(r.machines, name)
	return nil
}
