package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/channels"
	"biaslab/internal/cmini"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
	"biaslab/internal/report"
)

// cmdVet lints cmini programs: the shipped benchmark sources by default,
// or explicit .cm files (checked together as one program). Any finding is
// printed and the command exits 1 so CI can gate on it.
func (a *app) cmdVet(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	benchName := fs.String("bench", "", "lint one benchmark instead of all (ignored when files are given)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	nFindings := 0
	lintUnit := func(label string, sources map[string]string) error {
		var files []*cmini.File
		for _, name := range sortedNames(sources) {
			f, err := cmini.ParseFile(name, sources[name])
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			files = append(files, f)
		}
		u, err := cmini.Check(files)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		for _, d := range analysis.Lint(u) {
			fmt.Println(d)
			nFindings++
		}
		return nil
	}

	if fs.NArg() > 0 {
		sources := map[string]string{}
		for _, path := range fs.Args() {
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources[path] = string(text)
		}
		if err := lintUnit("vet", sources); err != nil {
			return err
		}
	} else {
		benches := bench.All()
		if *benchName != "" {
			b, err := lookupBench(*benchName)
			if err != nil {
				return err
			}
			benches = []*bench.Benchmark{b}
		}
		for _, b := range benches {
			sources := map[string]string{}
			for _, s := range b.Sources(bench.Size(a.size)) {
				sources[s.Name] = s.Text
			}
			if err := lintUnit(b.Name, sources); err != nil {
				return err
			}
		}
	}
	if nFindings > 0 {
		return fmt.Errorf("vet: %d finding(s)", nFindings)
	}
	return nil
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for name := range m { //determlint:allow names are sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// cmdPredict runs the bias oracle: it compiles and links one benchmark,
// statically extracts its stack footprint, and prints the predicted
// env-size transition points plus the link-permutation layout classes —
// without simulating a single cycle. -channel selects which perturbation
// is analyzed: env (stack displacement, the default), pad (inter-object
// text padding) or base (image-base displacement); the code channels go
// through the dataflow comparator, which proves pairs of layouts equal or
// different instead of predicting from one binary.
func (a *app) cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	benchName := benchFlag(fs)
	machineName := machineFlag(fs)
	channel := fs.String("channel", "env", "prediction channel: "+strings.Join(channels.OracleNames(), ", "))
	step := fs.Uint64("step", 8, "environment-size grid step in bytes (channel env)")
	maxEnv := fs.Uint64("max-env", 2048, "largest environment size on the grid (channel env)")
	perms := fs.Int("perms", 24, "link permutations to enumerate (cap)")
	o3 := fs.Bool("O3", false, "compile at -O3 (default -O2)")
	icc := fs.Bool("icc", false, "use the icc personality (default gcc)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if ch, ok := channels.ByName(*channel); !ok || !ch.Oracle {
		// The registry decides what predict can analyze. The tenant channel
		// is registered but deliberately not predictable: shared-state
		// displacement depends on both tenants' dynamic reference streams,
		// so the honest answer is UNKNOWN — measure it (sweep-tenant).
		if ok {
			return usageErrorf("channel %q has no static oracle (co-run interference is UNKNOWN until measured; use 'biaslab %s'); predictable channels: %s",
				*channel, ch.JobKind, strings.Join(channels.OracleNames(), ", "))
		}
		return usageErrorf("unknown channel %q: use %s", *channel, strings.Join(channels.OracleNames(), ", "))
	}
	b, err := lookupBench(*benchName)
	if err != nil {
		return err
	}
	cfg, ok := machine.ConfigByName(*machineName)
	if !ok {
		return usageErrorf("unknown machine %q (try 'biaslab list')", *machineName)
	}

	if a.jsonOut {
		// Emit the measurement plan for a sweep of the selected channel:
		// the merged O2+O3 EnvPlan, built through the very function the
		// auditor's oracle rules call, so what this command prints is
		// exactly what the auditor judges. -O3 is moot here (the plan
		// always covers both levels).
		setup := core.DefaultSetup(*machineName)
		if *icc {
			setup.Compiler.Personality = compiler.ICC
		}
		r := core.NewRunner(bench.Size(a.size))
		var plan *analysis.EnvPlan
		switch *channel {
		case "pad":
			plan, err = core.PlanPadSweep(r, b, setup, core.DefaultPadSizes())
		case "base":
			plan, err = core.PlanBaseSweep(r, b, setup, core.DefaultTextBases())
		default:
			var sizes []uint64
			if *step == 0 {
				*step = 8
			}
			for e := uint64(24); e <= *maxEnv; e += *step {
				sizes = append(sizes, e)
			}
			plan, err = core.PlanEnvSweep(r, b, setup, sizes)
		}
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(plan, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}

	ccfg := compiler.Config{Level: compiler.O2}
	if *o3 {
		ccfg.Level = compiler.O3
	}
	if *icc {
		ccfg.Personality = compiler.ICC
	}

	var sources []compiler.Source
	var objNames []string
	for _, s := range b.Sources(bench.Size(a.size)) {
		sources = append(sources, compiler.Source{Name: s.Name, Text: s.Text})
		objNames = append(objNames, s.Name)
	}
	objs, prog, err := compiler.Compile(sources, ccfg)
	if err != nil {
		return err
	}

	if *channel != "env" {
		// Code channels: link the executable at every grid value, run the
		// dataflow engine over each, and print the comparator's pairwise
		// verdicts for the compiled level.
		values := core.DefaultPadSizes()
		linkOpts := func(v uint64) linker.Options { return linker.Options{PadObjects: v} }
		if *channel == "base" {
			values = core.DefaultTextBases()
			linkOpts = func(v uint64) linker.Options { return linker.Options{TextBase: v} }
		}
		layouts := make([]*analysis.ChannelLayout, 0, len(values))
		for _, v := range values {
			exe, err := linker.Link(objs, linkOpts(v))
			if err != nil {
				return err
			}
			cl, err := analysis.NewChannelLayout(v, exe, prog)
			if err != nil {
				return err
			}
			layouts = append(layouts, cl)
		}
		sp := loader.InitialSP(loader.Options{
			Env:  loader.SyntheticEnv(core.DefaultEnvBytes),
			Args: []string{b.Name},
		})
		cm := analysis.BuildChannelConflictMap(b.Name, *machineName, *channel, cfg, sp, layouts)
		if a.csv {
			fmt.Print(report.ChannelMapCSV(cm))
			return nil
		}
		fmt.Printf("bias oracle: %s compiled %s, machine %s (%s workload)\n\n", b.Name, ccfg, *machineName, a.size)
		fmt.Print(report.ChannelMapText(cm))
		return nil
	}

	exe, err := linker.Link(objs, linker.Options{})
	if err != nil {
		return err
	}
	o, err := analysis.NewOracle(exe, prog, cfg, []string{b.Name}, 0)
	if err != nil {
		return err
	}

	var sizes []uint64
	if *step == 0 {
		*step = 8
	}
	for e := uint64(24); e <= *maxEnv; e += *step {
		sizes = append(sizes, e)
	}
	cm := o.ConflictMap(b.Name, *machineName, sizes)

	lm, err := analysis.BuildLinkOrderMap(objs, cfg, linker.Options{}, *perms)
	if err != nil {
		return err
	}

	if a.csv {
		fmt.Print(report.ConflictMapCSV(cm))
		return nil
	}
	fmt.Printf("bias oracle: %s compiled %s, machine %s (%s workload)\n", b.Name, ccfg, *machineName, a.size)
	fmt.Printf("stack footprint: %d intervals, max depth %d bytes\n\n", len(o.Foot.Intervals), o.Foot.MaxDepth)
	fmt.Print(report.ConflictMapText(cm))
	fmt.Println()
	fmt.Print(report.LinkOrderText(lm, objNames))
	return nil
}
