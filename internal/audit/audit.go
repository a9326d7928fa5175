// Package audit is the benchmarking-crimes auditor: a static rule engine
// that analyzes experiment specs — the exact canonicalized server.JobSpec
// the CLI, daemon and cluster all execute — and flags methodology crimes
// before a single cycle is spent, in the spirit of van der Kouwe et al.'s
// "Benchmarking Crimes" checklists and with thresholds grounded in
// internal/stats rather than taste.
//
// The rules encode the paper's findings as checkable predicates:
//
//	single-setup              a speedup "measured" at one setup (n=1) —
//	                          the paper's titular crime: the setup's bias
//	                          is unknowable and often exceeds the effect.
//	insufficient-setups       n too small for the target CI half-width at
//	                          the prior setup-variance (stats.MinSamples).
//	coarse-env-grid           a sweep grid whose step skips oracle-predicted
//	                          transition plateaus (analysis.PlanEnvSweep):
//	                          the sweep cannot see structure it steps over.
//	unrandomized-sensitive    a fixed-setup run of a benchmark the bias
//	                          oracle predicts is env-sensitive; the number
//	                          depends on an unreported setup choice.
//	unrandomized-sensitive-pad / -base
//	                          the same crime through a code-placement
//	                          channel: the dataflow comparator *proves* the
//	                          benchmark's cycles move under inter-object
//	                          text padding (pad) or an image-base
//	                          displacement (base), so a fixed-layout run
//	                          reports one arbitrary point of that swing.
//	incommensurable-machines  one conclusion pooled across machines with
//	                          different cache/TLB geometries.
//	fixed-corunner-sensitive  a randomized estimate measured entirely under
//	                          one pinned co-runner: every setup shares that
//	                          tenant's interference, so the estimate is
//	                          conditional on an unreported tenancy choice —
//	                          the measured co-runner swing flips O2-vs-O3
//	                          verdicts (EXPERIMENTS.md, E10).
//	idle-machine-only         a spec that declares a shared deployment
//	                          context ("serving") but measures only on an
//	                          idle machine — no co-runner fixed, randomized
//	                          or swept.
//	inconclusive-interval     a direction claimed from a result whose
//	                          confidence interval spans no effect.
//
// Severity error gates (CLI exit 1, daemon ?strict=1 rejection); warn
// informs. Findings are suppressed — reported but not gating — by an
// `//audit:allow <rule>` directive in the spec file or the spec's
// audit_allow field; suppressions are judgment metadata and never change
// the spec's content key.
package audit

import (
	"fmt"
	"sort"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/linker"
	"biaslab/internal/machine"
	"biaslab/internal/server"
	"biaslab/internal/stats"
)

// Rule ids, stable across releases: suppressions and CI greps depend on
// them.
const (
	RuleSingleSetup      = "single-setup"
	RuleFewSetups        = "insufficient-setups"
	RuleCoarseGrid       = "coarse-env-grid"
	RuleUnrandomized     = "unrandomized-sensitive"
	RuleUnrandomizedPad  = "unrandomized-sensitive-pad"
	RuleUnrandomizedBase = "unrandomized-sensitive-base"
	RuleIncommensurable  = "incommensurable-machines"
	RuleFixedCoRunner    = "fixed-corunner-sensitive"
	RuleIdleMachine      = "idle-machine-only"
	RuleInconclusive     = "inconclusive-interval"
)

// Rules lists every rule id in catalog order.
func Rules() []string {
	return []string{
		RuleSingleSetup, RuleFewSetups, RuleCoarseGrid,
		RuleUnrandomized, RuleUnrandomizedPad, RuleUnrandomizedBase,
		RuleIncommensurable, RuleFixedCoRunner, RuleIdleMachine,
		RuleInconclusive,
	}
}

// KnownRule reports whether id names a rule in the catalog.
func KnownRule(id string) bool {
	for _, r := range Rules() {
		if r == id {
			return true
		}
	}
	return false
}

// Statistical grounding of the repetition threshold. SigmaSetup is the
// prior standard deviation of the O3-over-O2 speedup across randomized
// setups: the repo's own randomized estimates (EXPERIMENTS.md, F9) show
// per-setup speedup spreads of 0.5–2 percentage points, so 1.5% is a
// conservative planning prior. TargetHalfWidth is one percentage point —
// comfortably below the up-to-10% biases the paper documents, so an
// experiment sized for it can actually distinguish effect from bias.
const (
	SigmaSetup      = 0.015
	TargetHalfWidth = 0.01
	Level           = 0.95
)

// MinSetups is the smallest randomized-setup count for which the Student-t
// interval at Level reaches TargetHalfWidth under the SigmaSetup prior —
// the insufficient-setups threshold, derived (stats.MinSamples), not
// chosen.
func MinSetups() int {
	return stats.MinSamples(SigmaSetup, TargetHalfWidth, Level)
}

// Finding is the wire finding type, shared with the daemon.
type Finding = server.AuditFinding

// Auditor evaluates the rule catalog. The runner hook supplies the shared
// measurement Runner for a workload size: the oracle-backed rules compile
// and link (cached, static) but never simulate.
type Auditor struct {
	runner func(size bench.Size) *core.Runner
}

// New builds an Auditor over a Runner source — server.(*Server).Runner for
// the daemon, or any compatible closure for the CLI.
func New(runner func(size bench.Size) *core.Runner) *Auditor {
	return &Auditor{runner: runner}
}

// Spec is one audited spec with its provenance and file-level
// suppressions.
type Spec struct {
	// File is the origin (rendered in findings); empty for API
	// submissions.
	File string
	// Spec is the raw spec as written: its AuditAllow field is honored and
	// Canonicalize is applied here, exactly as the daemon does at submit.
	Spec server.JobSpec
	// Allow holds file-level //audit:allow suppressions, in addition to
	// the spec's own audit_allow field.
	Allow []string
	// Result, when non-nil, is the stored result the spec came from; the
	// result-level rules (inconclusive-interval) run against it.
	Result *server.Result
}

// AuditSpec implements server.SpecAuditor: the per-spec rules, with the
// spec's audit_allow suppressions applied. This is the daemon's submit-time
// gate.
func (a *Auditor) AuditSpec(spec server.JobSpec) ([]Finding, error) {
	return a.auditOne(Spec{Spec: spec})
}

// auditOne runs every single-spec rule and applies suppressions.
func (a *Auditor) auditOne(in Spec) ([]Finding, error) {
	c, err := in.Spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	var fs []Finding
	fs = append(fs, ruleRepetitions(c, in.Spec.Tol > 0)...)
	fs = append(fs, ruleTenancy(c, in.Spec.Context)...)
	oracleFs, err := a.ruleOracle(c)
	if err != nil {
		return nil, err
	}
	fs = append(fs, oracleFs...)
	fs = append(fs, ruleInconclusive(in.Result)...)
	return finish(fs, allowSet(in)), nil
}

// AuditSet audits a group of specs that back one conclusion: every
// per-spec rule, plus the cross-spec comparability rules. This is what
// `biaslab audit` runs over the files it is given.
func (a *Auditor) AuditSet(ins []Spec) (*Report, error) {
	rep := &Report{}
	for _, in := range ins {
		fs, err := a.auditOne(in)
		if err != nil {
			return nil, fmt.Errorf("audit: %s: %w", subject(in), err)
		}
		rep.add(in, fs)
	}
	for _, e := range ruleIncommensurable(ins) {
		rep.addEntry(e)
	}
	rep.tally()
	return rep, nil
}

// allowSet merges file-level and spec-field suppressions.
func allowSet(in Spec) map[string]bool {
	m := map[string]bool{}
	for _, r := range in.Allow {
		m[r] = true
	}
	for _, r := range in.Spec.AuditAllow {
		m[r] = true
	}
	return m
}

// finish applies suppressions and fixes the ordering (severity, then rule)
// so findings render deterministically.
func finish(fs []Finding, allow map[string]bool) []Finding {
	for i := range fs {
		if allow[fs[i].Rule] {
			fs[i].Suppressed = true
		}
	}
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity == server.AuditError
		}
		return fs[i].Rule < fs[j].Rule
	})
	return fs
}

// ruleRepetitions covers single-setup and insufficient-setups: the
// randomization-and-sample-size crimes, with the threshold derived from
// stats.MinSamples rather than decreed.
func ruleRepetitions(c server.JobSpec, adaptive bool) []Finding {
	if c.Kind != server.KindRandomize {
		return nil
	}
	min := MinSetups()
	if c.N == 1 {
		return []Finding{{
			Rule:     RuleSingleSetup,
			Severity: server.AuditError,
			Message: fmt.Sprintf(
				"randomize with n=1 is a single-setup comparison: one setup's bias is unknowable and can exceed the effect (the paper's Fig. 9 setups land outside the robust interval); use n ≥ %d",
				min),
		}}
	}
	if c.N >= min {
		return nil
	}
	if adaptive {
		return []Finding{{
			Rule:     RuleFewSetups,
			Severity: server.AuditWarn,
			Message: fmt.Sprintf(
				"adaptive randomize capped at n=%d setups, below the n=%d that σ₀=%.3f requires for a ±%.0f%%-point 95%% CI: the run may stop at the cap without reaching tol=%g",
				c.N, min, SigmaSetup, TargetHalfWidth*100, c.Tol),
		}}
	}
	return []Finding{{
		Rule:     RuleFewSetups,
		Severity: server.AuditError,
		Message: fmt.Sprintf(
			"n=%d randomized setups is statistically insufficient: with prior setup-variance σ₀=%.3f, a 95%% t interval needs n ≥ %d to reach a ±%.0f%%-point half-width (t(n−1)·σ₀/√n ≤ %.2f)",
			c.N, SigmaSetup, min, TargetHalfWidth*100, TargetHalfWidth),
	}}
}

// ruleTenancy covers the multi-tenant interference crimes. The context
// argument is the raw spec's deployment-context declaration: Canonicalize
// drops it (judgment metadata, never part of the content key), so it is
// threaded in alongside the canonical spec, like the adaptive flag in
// ruleRepetitions.
func ruleTenancy(c server.JobSpec, context string) []Finding {
	var fs []Finding
	if c.Kind == server.KindRandomize && c.CoBench != "" {
		fs = append(fs, Finding{
			Rule:     RuleFixedCoRunner,
			Severity: server.AuditError,
			Message: fmt.Sprintf(
				"randomize pins %s as the only co-runner: every setup shares one tenant's interference, so the estimate is conditional on an unreported tenancy choice — the measured co-runner swing flips O2-vs-O3 verdicts (EXPERIMENTS.md, E10); randomize the tenant too (co_random) or sweep it (kind=sweep-tenant)",
				c.CoBench),
		})
	}
	if context == "serving" {
		interference := c.CoBench != "" || c.CoRandom || c.Kind == server.KindSweepTenant
		if !interference {
			fs = append(fs, Finding{
				Rule:     RuleIdleMachine,
				Severity: server.AuditWarn,
				Message: fmt.Sprintf(
					"the spec claims a %q deployment context but every measurement runs on an idle machine: co-run interference is part of the claimed workload; sweep it (kind=sweep-tenant), randomize it (co_random) or at least fix a representative tenant (co_bench)",
					context),
			})
		}
	}
	return fs
}

// fineGridStep is the oracle-plan grid resolution: one stack slot (8
// bytes), the finest displacement the environment can apply.
const fineGridStep = 8

// fineGrid is the dense env-size grid the oracle rules plan over: every
// representable size at slot resolution up to the sweep ceiling.
func fineGrid() []uint64 {
	sizes := []uint64{8}
	for e := uint64(17); e <= 4096; e += fineGridStep {
		sizes = append(sizes, e)
	}
	return sizes
}

// planFor builds the merged O2+O3 env plan for a canonical spec — the same
// artifact `biaslab predict -json` emits.
// Compile and link only; nothing is simulated.
func (a *Auditor) planFor(c server.JobSpec) (*analysis.EnvPlan, error) {
	size, err := bench.ParseSize(c.Size)
	if err != nil {
		return nil, err
	}
	setup, b, err := server.BaseSetup(c)
	if err != nil {
		return nil, err
	}
	return core.PlanEnvSweep(a.runner(size), b, setup, fineGrid())
}

// ruleOracle covers the two oracle-backed rules: coarse-env-grid for
// sweeps, unrandomized-sensitive for fixed-setup runs.
func (a *Auditor) ruleOracle(c server.JobSpec) ([]Finding, error) {
	switch c.Kind {
	case server.KindSweepEnv:
		plan, err := a.planFor(c)
		if err != nil {
			return nil, err
		}
		return ruleCoarseGrid(c, plan), nil
	case server.KindRun:
		plan, err := a.planFor(c)
		if err != nil {
			return nil, err
		}
		fs := ruleUnrandomized(c, plan)
		chFs, err := a.ruleUnrandomizedChannels(c)
		if err != nil {
			return nil, err
		}
		return append(fs, chFs...), nil
	}
	return nil, nil
}

// ruleUnrandomizedChannels covers the code-placement variants of
// unrandomized-sensitive. For each channel it plans a minimal two-point
// probe — the unperturbed layout against a 4-byte perturbation, the
// smallest displacement the channel can apply — and fires only when the
// plan is exact with a boundary: the comparator *proved* the two layouts
// measure differently, so a fixed-layout number depends on a layout choice
// the spec never reports. An undecided pair stays silent — the auditor
// accuses only on proof.
func (a *Auditor) ruleUnrandomizedChannels(c server.JobSpec) ([]Finding, error) {
	size, err := bench.ParseSize(c.Size)
	if err != nil {
		return nil, err
	}
	setup, b, err := server.BaseSetup(c)
	if err != nil {
		return nil, err
	}
	r := a.runner(size)
	probes := []struct {
		rule    string
		knob    string
		values  []uint64
		planner func(*core.Runner, *bench.Benchmark, core.Setup, []uint64) (*analysis.EnvPlan, error)
	}{
		{RuleUnrandomizedPad, "inter-object text padding", []uint64{0, 4}, core.PlanPadSweep},
		{RuleUnrandomizedBase, "image base", []uint64{linker.DefaultTextBase, linker.DefaultTextBase + 4}, core.PlanBaseSweep},
	}
	var fs []Finding
	for _, p := range probes {
		plan, err := p.planner(r, b, setup, p.values)
		if err != nil {
			return nil, err
		}
		if !plan.Exact || len(plan.Boundaries) == 0 {
			continue
		}
		fs = append(fs, Finding{
			Rule:     p.rule,
			Severity: server.AuditWarn,
			Message: fmt.Sprintf(
				"the dataflow comparator proves %s@%s is sensitive to %s (a 4-byte shift provably changes its cycle count): a fixed-layout run measures one arbitrary point of that swing; sweep the channel (kind=sweep-%s) or randomize the setup",
				c.Bench, c.Machine, p.knob, plan.Channel),
		})
	}
	return fs, nil
}

// ruleCoarseGrid flags a dense sweep whose step strides over predicted
// plateaus: between two consecutive transition boundaries the oracle
// predicts constant cycles, so a plateau containing no grid point is
// structure the sweep reports nothing about — its bias range (min/max
// swing) silently underestimates the true swing.
func ruleCoarseGrid(c server.JobSpec, plan *analysis.EnvPlan) []Finding {
	if len(plan.Boundaries) == 0 {
		return nil
	}
	// Predicted plateaus as byte intervals [start, end).
	starts := []uint64{plan.Sizes[0]}
	for _, bi := range plan.Boundaries {
		starts = append(starts, plan.Sizes[bi])
	}
	grid := core.DefaultEnvSizes(c.Step)
	missed := 0
	narrowest := uint64(0)
	for i, start := range starts {
		end := uint64(4096 + 1)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		covered := false
		for _, g := range grid {
			if g >= start && g < end {
				covered = true
				break
			}
		}
		if !covered {
			missed++
			if w := end - start; narrowest == 0 || w < narrowest {
				narrowest = w
			}
		}
	}
	if missed == 0 {
		return nil
	}
	return []Finding{{
		Rule:     RuleCoarseGrid,
		Severity: server.AuditWarn,
		Message: fmt.Sprintf(
			"step=%d strides over %d of %d oracle-predicted plateaus (narrowest missed plateau %d bytes): the sweep's bias range underestimates the true swing; use step ≤ %d",
			c.Step, missed, len(starts), narrowest, narrowest),
	}}
}

// ruleUnrandomized flags a fixed-setup run of a benchmark whose predicted
// env signature is not flat: the reported cycle count then depends on an
// unreported setup choice (the paper's Fig. 1 in miniature).
func ruleUnrandomized(c server.JobSpec, plan *analysis.EnvPlan) []Finding {
	if len(plan.Boundaries) == 0 {
		return nil
	}
	return []Finding{{
		Rule:     RuleUnrandomized,
		Severity: server.AuditWarn,
		Message: fmt.Sprintf(
			"the bias oracle predicts %s@%s is environment-sensitive (%d env-size transitions): a single run at env_bytes=%d measures one arbitrary point of that swing; use kind=randomize to report an interval instead",
			c.Bench, c.Machine, len(plan.Boundaries), c.EnvBytes),
	}}
}

// ruleIncommensurable is the cross-spec rule: randomized speedup estimates
// for the same benchmark pooled across machines whose cache/TLB geometries
// differ are not commensurable — the paper's Fig. 4/5 show the same binary
// pair flipping direction between Pentium 4 and Core 2. Sweeps across
// machines are legitimate bias studies; pooling *effect estimates* is the
// crime, so the rule watches randomize specs only.
func ruleIncommensurable(ins []Spec) []Entry {
	type member struct {
		in  Spec
		c   server.JobSpec
		geo string
	}
	groups := map[string][]member{}
	var orderedKeys []string
	for _, in := range ins {
		c, err := in.Spec.Canonicalize()
		if err != nil || c.Kind != server.KindRandomize {
			continue // per-spec auditing already reported the error
		}
		cfg, ok := machine.ConfigByName(c.Machine)
		if !ok {
			continue
		}
		key := c.Kind + "/" + c.Bench + "/" + c.Size + "/" + c.Personality
		if _, seen := groups[key]; !seen {
			orderedKeys = append(orderedKeys, key)
		}
		groups[key] = append(groups[key], member{in: in, c: c, geo: geometry(cfg)})
	}
	var entries []Entry
	for _, key := range orderedKeys {
		ms := groups[key]
		for i := 1; i < len(ms); i++ {
			if ms[i].c.Machine == ms[0].c.Machine || ms[i].geo == ms[0].geo {
				continue
			}
			f := Finding{
				Rule:     RuleIncommensurable,
				Severity: server.AuditError,
				Message: fmt.Sprintf(
					"compares %s across machines with different cache geometry: %s (%s) vs %s (%s); the paper's Fig. 4/5 show such speedups flipping sign between machines — audit them as separate experiments",
					ms[0].c.Bench, ms[0].c.Machine, ms[0].geo, ms[i].c.Machine, ms[i].geo),
			}
			if allowSet(ms[i].in)[f.Rule] || allowSet(ms[0].in)[f.Rule] {
				f.Suppressed = true
			}
			entries = append(entries, Entry{Subject: subject(ms[i].in), Finding: f})
		}
	}
	return entries
}

// geometry renders the comparability-relevant part of a machine config:
// cache and TLB shape, not penalties.
func geometry(cfg machine.Config) string {
	cc := func(c machine.CacheConfig) string {
		return fmt.Sprintf("%dKB/%dw/%dB", c.SizeKB, c.Ways, c.LineSize)
	}
	return fmt.Sprintf("L1I %s, L1D %s, L2 %s, ITLB %d, DTLB %d, page %dB",
		cc(cfg.L1I), cc(cfg.L1D), cc(cfg.L2), cfg.ITLBEntries, cfg.DTLBEntries, cfg.PageSize)
}

// AuditResult applies every rule — spec-level and result-level — to a
// stored result.
func (a *Auditor) AuditResult(res *server.Result, allow []string) ([]Finding, error) {
	return a.auditOne(Spec{Spec: res.Spec, Allow: allow, Result: res})
}

// ruleInconclusive is the result-level crime: claiming a direction from an
// interval that spans no effect. A spec cannot commit it — only a result
// can — so it fires only when the audited subject is a stored result.
func ruleInconclusive(res *server.Result) []Finding {
	if res == nil || res.Randomize == nil || res.Randomize.Conclusive {
		return nil
	}
	iv := res.Randomize.Estimate.TInterval
	return []Finding{{
		Rule:     RuleInconclusive,
		Severity: server.AuditError,
		Message: fmt.Sprintf(
			"the %.0f%% CI [%.4f, %.4f] spans 1.0: no directional conclusion is supported by this result — report the interval, not a winner",
			iv.Level*100, iv.Lo, iv.Hi),
	}}
}

// subject labels a spec for rendering: its file when known, else its
// content summary.
func subject(in Spec) string {
	if in.File != "" {
		return in.File
	}
	c, err := in.Spec.Canonicalize()
	if err != nil {
		return "spec"
	}
	if c.Kind == server.KindExperiment {
		return c.Kind + " " + c.Experiment
	}
	return c.Kind + " " + c.Bench + "@" + c.Machine
}
