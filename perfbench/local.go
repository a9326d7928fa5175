package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/server"
)

// localSetupReps is how many times a local pass repeats its set-up, so
// setup_s is a median of several samples.
const localSetupReps = 20

// rng is the benchmark's own input generator (splitmix64), independent of
// the program's RNG so that the inputs never change with the program.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// envSweepInputs is the env-sweep workload: sweep-env at size small and
// step 128 over {perlbench, hmmer, libquantum} × {core2, p4}, in an order
// drawn from the seed.
func envSweepInputs(seed uint64) []server.JobSpec {
	var specs []server.JobSpec
	for _, b := range []string{"perlbench", "hmmer", "libquantum"} {
		for _, m := range []string{"core2", "p4"} {
			specs = append(specs, server.JobSpec{Kind: server.KindSweepEnv, Size: "small", Bench: b, Machine: m, Step: 128})
		}
	}
	r := &rng{s: seed}
	out := make([]server.JobSpec, len(specs))
	for i, j := range r.perm(len(specs)) {
		out[i] = specs[j]
	}
	return out
}

// randomizeInputs is the randomize-corun workload: randomize with a
// randomized co-runner, n=16, on sjeng and mcf at core2, size small, with
// spec seeds drawn from the workload seed. A co-run costs about twice a
// solo run, so a seed whose setups happen to draw few co-runners would make
// a cheaper workload; only spec seeds whose setups draw every tenant of
// the panel (idle included) at least twice are kept, which fixes the
// workload's cost while the seed still draws every setup's env size, link
// order, text pad and tenant.
func randomizeInputs(seed uint64) ([]server.JobSpec, error) {
	r := &rng{s: seed ^ 0x72616e64}
	var specs []server.JobSpec
	for _, b := range []string{"sjeng", "mcf"} {
		spec := server.JobSpec{Kind: server.KindRandomize, Size: "small", Bench: b, Machine: "core2", N: 16, CoRandom: true}
		c, err := spec.Canonicalize()
		if err != nil {
			return nil, err
		}
		base, bm, err := server.BaseSetup(c)
		if err != nil {
			return nil, err
		}
		units := len(bm.Sources(bench.SizeSmall))
		for {
			spec.Seed = 1 + r.next()%1_000_000
			if minTenantDraws(core.RandomSetupsTenant(base, spec.N, units, spec.Seed, core.DefaultCoRunners())) >= 2 {
				break
			}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// minTenantDraws is the fewest setups any panel tenant was drawn for.
func minTenantDraws(setups []core.Setup) int {
	counts := map[string]int{}
	for _, t := range core.DefaultCoRunners() {
		counts[t] = 0
	}
	for _, s := range setups {
		t := core.TenantIdle
		if !s.CoRunner.IsZero() {
			t = s.CoRunner.Bench
		}
		counts[t]++
	}
	least := len(setups)
	for _, n := range counts {
		least = min(least, n)
	}
	return least
}

// localWorkload runs each spec as a local CLI invocation does:
// server.Execute on a fresh core.Runner. Every operation computes its
// result from scratch (a miss); a local run has no stored results.
type localWorkload struct {
	inputs []server.JobSpec

	soloMu     sync.Mutex
	soloRunner *core.Runner
	solo       map[coRunner]uint64 // co-runner solo instruction counts
}

func newLocal(inputs []server.JobSpec) *localWorkload {
	return &localWorkload{inputs: inputs, solo: map[coRunner]uint64{}}
}

type localSpec struct {
	label string
	spec  server.JobSpec // canonical
	size  bench.Size
}

// prepare is a local pass's set-up: canonicalize and key every input, as
// each CLI invocation does before its first measurement.
func (w *localWorkload) prepare() ([]localSpec, error) {
	out := make([]localSpec, len(w.inputs))
	for i, in := range w.inputs {
		c, err := in.Canonicalize()
		if err != nil {
			return nil, err
		}
		if _, err := server.Key(c); err != nil {
			return nil, err
		}
		size, err := sizeOf(c.Size)
		if err != nil {
			return nil, err
		}
		out[i] = localSpec{label: specLabel(in), spec: c, size: size}
	}
	return out, nil
}

// specLabel names a spec by the fields it sets.
func specLabel(s server.JobSpec) string {
	parts := []string{s.Kind, s.Bench}
	for _, f := range []string{s.Machine, s.Level} {
		if f != "" {
			parts = append(parts, f)
		}
	}
	if s.EnvBytes != 0 {
		parts = append(parts, fmt.Sprintf("env=%d", s.EnvBytes))
	}
	if s.N != 0 {
		parts = append(parts, fmt.Sprintf("n=%d", s.N))
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	return strings.Join(parts, "/")
}

func sizeOf(s string) (bench.Size, error) {
	switch s {
	case "test":
		return bench.SizeTest, nil
	case "small":
		return bench.SizeSmall, nil
	case "ref":
		return bench.SizeRef, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// work tallies the exact work of one execution.
type work struct {
	mu           sync.Mutex
	measurements uint64
	soloInstr    uint64              // instructions retired by solo runs
	coSubject    uint64              // subject instructions under a co-runner
	coRunners    map[coRunner]uint64 // co-runner → number of co-runs
	err          error
}

func (wk *work) observe(m *core.Measurement) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	wk.measurements++
	if m.Setup.CoRunner.IsZero() {
		wk.soloInstr += m.Counters.Instructions
		return
	}
	wk.coSubject += m.Counters.Instructions
	co, err := core.CoRunnerSetup(m.Setup)
	if err != nil {
		wk.err = err
		return
	}
	if wk.coRunners == nil {
		wk.coRunners = map[coRunner]uint64{}
	}
	wk.coRunners[coRunner{bench: m.Setup.CoRunner.Bench, machine: co.Machine, cfg: co.Compiler}]++
}

// coRunner identifies a co-runner's solo run.
type coRunner struct {
	bench   string
	machine string
	cfg     compiler.Config
}

// soloInstructions returns the instructions a co-runner retires running
// alone, measured once off the timed path. Both tenants of a co-run run
// to completion, so this is the co-runner's share of the work.
func (w *localWorkload) soloInstructions(co coRunner, size bench.Size) (uint64, error) {
	w.soloMu.Lock()
	defer w.soloMu.Unlock()
	if n, ok := w.solo[co]; ok {
		return n, nil
	}
	b, ok := bench.ByName(co.bench)
	if !ok {
		return 0, fmt.Errorf("unknown co-runner %q", co.bench)
	}
	if w.soloRunner == nil || w.soloRunner.Size != size {
		w.soloRunner = core.NewRunner(size)
	}
	solo := core.Setup{Machine: co.machine, Compiler: co.cfg, EnvBytes: core.DefaultEnvBytes}
	m, err := w.soloRunner.Measure(context.Background(), b, solo)
	if err != nil {
		return 0, fmt.Errorf("solo run of co-runner %s: %w", b.Name, err)
	}
	w.solo[co] = m.Counters.Instructions
	return m.Counters.Instructions, nil
}

// totals converts a tally to (machine, tenancy) instruction counts.
func (w *localWorkload) totals(wk *work, size bench.Size) (uint64, uint64, error) {
	if wk.err != nil {
		return 0, 0, wk.err
	}
	tenancy := wk.coSubject
	for co, n := range wk.coRunners {
		solo, err := w.soloInstructions(co, size)
		if err != nil {
			return 0, 0, err
		}
		tenancy += n * solo
	}
	return wk.soloInstr, tenancy, nil
}

// heapAlloc reads the process's cumulative heap allocation (TotalAlloc).
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (w *localWorkload) pass(traced bool) (*passResult, error) {
	p := &passResult{counts: map[string]uint64{}}
	var specs []localSpec
	for i := 0; i < localSetupReps; i++ {
		t0 := time.Now()
		var err error
		if specs, err = w.prepare(); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if err := startPass(); err != nil {
		return nil, err
	}
	var machineInstr, tenancyInstr uint64
	for _, ls := range specs {
		wk := &work{}
		a0 := heapAlloc()
		t0 := time.Now()
		var res *server.Result
		var err error
		if traced {
			res, err = tracedExecute(ls, tr, wk)
		} else {
			r := core.NewRunner(ls.size)
			r.OnMeasure = wk.observe
			res, err = server.Execute(context.Background(), r, ls.spec, nil, nil)
		}
		var raw []byte
		if err == nil {
			raw, err = server.EncodeResult(res)
		}
		op := opResult{label: ls.label, latency: time.Since(t0), err: err}
		p.alloc += heapAlloc() - a0
		p.window += op.latency
		if err == nil {
			op.digest = digest(raw)
		}
		p.ops = append(p.ops, op)
		if err != nil {
			continue
		}
		p.rows += resultRows(res)
		p.jobs++
		mi, ti, err := w.totals(wk, ls.size)
		if err != nil {
			return nil, err
		}
		machineInstr += mi
		tenancyInstr += ti
		p.counts["core.measurements"] += wk.measurements
	}
	var err error
	if p.peakRSS, err = peakRSSMB(); err != nil {
		return nil, err
	}
	p.instr = machineInstr + tenancyInstr
	p.allocUnit = max(p.rows, 1)
	p.counts["ops"] = uint64(len(p.ops))
	p.counts["rows"] = p.rows
	p.counts["machine.instructions"] = machineInstr
	p.counts["tenancy.instructions"] = tenancyInstr
	if traced {
		tr.set("core.failed", float64(countFailed(p.ops)))
		p.layers = tr.layers()
	}
	return p, nil
}

func countFailed(ops []opResult) int {
	n := 0
	for _, op := range ops {
		if op.err != nil {
			n++
		}
	}
	return n
}

// resultRows is the number of result rows a result holds: one per setup
// measured at both O2 and O3 (one per run job).
func resultRows(res *server.Result) uint64 {
	switch {
	case res.EnvSweep != nil:
		return uint64(len(res.EnvSweep.Points))
	case res.Randomize != nil:
		return uint64(res.Randomize.Estimate.N)
	case res.TenantSweep != nil:
		return uint64(len(res.TenantSweep.Points))
	case res.Run != nil:
		return 1
	}
	return 0
}

// randomSetups draws a randomize spec's setups exactly as the program does.
func randomSetups(ls localSpec, base core.Setup, b *bench.Benchmark) []core.Setup {
	units := len(b.Sources(ls.size))
	if ls.spec.CoRandom {
		return core.RandomSetupsTenant(base, ls.spec.N, units, ls.spec.Seed, core.DefaultCoRunners())
	}
	return core.RandomSetups(base, ls.spec.N, units, ls.spec.Seed)
}

// memCheckpoint is an in-memory core.Checkpoint holding a traced pass's
// points, so the program's own Execute assembles the traced result.
type memCheckpoint struct {
	mu sync.Mutex
	m  map[string]json.RawMessage
}

func (c *memCheckpoint) Lookup(key string, out any) (bool, error) {
	c.mu.Lock()
	raw, ok := c.m[key]
	c.mu.Unlock()
	if !ok || out == nil {
		return ok, nil
	}
	return true, json.Unmarshal(raw, out)
}

func (c *memCheckpoint) Record(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.m[key] = raw
	c.mu.Unlock()
	return nil
}
