// Command predsim runs one benchmark (or an assembled file) on the
// out-of-order pipeline under a chosen branch-prediction scheme and
// prints the resulting statistics. All simulation driving goes through
// the public repro/sim façade; scheme names resolve against its
// registry, so -scheme accepts anything sim.RegisterScheme added.
//
// Examples:
//
//	predsim -bench vpr -scheme predpred -ifconvert -n 300000
//	predsim -bench twolf -scheme conventional
//	predsim -workload examples/customworkload/phasehop.json -mode trace
//	predsim -list
//	predsim -schemes
//	predsim -workloads
//	predsim -disasm -bench gzip | head -50
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/sim"
)

func main() {
	var (
		asmFile   = flag.String("asm", "", "assemble and run this file instead of a suite benchmark")
		benchName = flag.String("bench", "gzip", "benchmark name (see -list)")
		workload  = flag.String("workload", "", "run a workload entry instead of -bench: a spec file (*.json/*.toml), a registered workload name (see -workloads), or a benchmark name; must resolve to exactly one benchmark")
		scheme    = flag.String("scheme", "predpred", "prediction scheme (see -schemes)")
		ifconv    = flag.Bool("ifconvert", false, "run the if-converted binary (profile-guided)")
		commits   = flag.Uint64("n", 300000, "committed-instruction budget")
		profile   = flag.Uint64("profile", 200000, "profiling steps for if-conversion")
		list      = flag.Bool("list", false, "list the benchmark suite and exit")
		schemes   = flag.Bool("schemes", false, "list the registered prediction schemes and exit")
		workloads = flag.Bool("workloads", false, "list the registered workloads and exit")
		disasm    = flag.Bool("disasm", false, "disassemble the (possibly converted) binary and exit")
		ideal     = flag.Bool("ideal", false, "idealized predictors: no aliasing, perfect global history")
		selectPr  = flag.Bool("select", false, "force select-µop predication (disable selective prediction)")
		mode      = flag.String("mode", "pipeline", "execution mode: pipeline (cycle model) or trace (record-once trace replay, accuracy stats only)")
		feCache   = flag.String("frontend-cache", "", `trace mode only: cache the frontend artifact in this directory ("auto" = PREDSIM_FRONTEND_DIR or the user cache dir; empty = live frontend)`)
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metrics   = flag.String("metrics", "", "write a metrics snapshot (spans, counters) to this JSON file at exit")
		manifest  = flag.String("manifest", "", "write an NDJSON run manifest to this file at exit")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-10s %-5s %6s %9s %9s %9s\n", "name", "class", "sites", "hardFrac", "hoistFrac", "arrayKB")
		for _, s := range sim.Benchmarks() {
			fmt.Printf("%-10s %-5s %6d %9.2f %9.2f %9d\n", s.Name, s.Class, s.Sites, s.HardFrac, s.HoistFrac, s.ArrayKB)
		}
		return
	}
	if *schemes {
		for _, n := range sim.SchemeNames() {
			s, _ := sim.ResolveScheme(n)
			fmt.Printf("%-14s %s\n", n, s.Doc)
		}
		return
	}
	if *workloads {
		for _, n := range sim.WorkloadNames() {
			w, _ := sim.ResolveWorkload(n)
			fmt.Printf("%-14s %2d benchmarks  %s\n", n, len(w.Specs), w.Doc)
		}
		return
	}

	var prog *sim.Program
	if *workload != "" {
		specs, err := sim.SuiteSpecs(*workload)
		if err != nil {
			fatal(err)
		}
		if len(specs) != 1 {
			fatal(fmt.Errorf("workload %q names %d benchmarks; predsim runs one (drive multi-benchmark workloads through cmd/experiments or cmd/sweep)", *workload, len(specs)))
		}
		prog, err = sim.BuildSpec(specs[0])
		if err != nil {
			fatal(err)
		}
	} else if *asmFile != "" {
		text, err := os.ReadFile(*asmFile)
		if err != nil {
			fatal(err)
		}
		prog, err = sim.Assemble(*asmFile, string(text))
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		prog, err = sim.BuildBenchmark(*benchName)
		if err != nil {
			fatal(err)
		}
	}
	if *ifconv {
		prof := sim.ProfileProgram(prog, *profile)
		res, err := sim.IfConvert(prog, sim.DefaultIfConvertOptions(prof))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# if-converted %d regions (%d branches removed, %d region branches)\n",
			len(res.Converted), res.Removed, res.RegionBrs)
		prog = res.Prog
	}
	if *disasm {
		fmt.Print(prog.Disassemble())
		return
	}

	if _, ok := sim.ResolveScheme(*scheme); !ok {
		fatal(fmt.Errorf("unknown scheme %q (registered: %v)", *scheme, sim.SchemeNames()))
	}
	m, err := sim.ParseSingleMode(*mode)
	if err != nil {
		fatal(err)
	}
	frontendDir := *feCache
	if frontendDir != "" && m != sim.ModeTrace {
		fatal(fmt.Errorf("-frontend-cache needs -mode trace (artifacts feed trace replay only)"))
	}
	if frontendDir == "auto" {
		frontendDir = sim.DefaultFrontendCacheDir()
	}
	var obsv *sim.Observer
	if *metrics != "" || *manifest != "" {
		obsv = sim.NewObserver()
	}
	if *cpuprof != "" {
		stopProf, err := sim.StartCPUProfile(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, "predsim:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := sim.SimulateProgram(ctx, sim.ProgramRun{
		Program:     prog,
		Scheme:      *scheme,
		Commits:     *commits,
		Mode:        m,
		FrontendDir: frontendDir,
		Observer:    obsv,
		Mutate: func(c *sim.Config) {
			if *ideal {
				c.IdealNoAlias, c.IdealPerfectGHR = true, true
			}
			if *selectPr {
				c.Predication = sim.PredicationSelect
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	report(prog, res)

	if *metrics != "" {
		if err := obsv.WriteMetricsFile(*metrics); err != nil {
			fatal(err)
		}
	}
	if *manifest != "" {
		if err := obsv.WriteManifestsFile(*manifest); err != nil {
			fatal(err)
		}
	}
	if *memprof != "" {
		if err := sim.WriteHeapProfile(*memprof); err != nil {
			fatal(err)
		}
	}
}

func report(p *sim.Program, res sim.ProgramResult) {
	st := res.Stats
	sum := p.Summarize()
	fmt.Printf("program: %s (%d instructions, %d static cond branches, %d compares, %d predicated)\n",
		p.Name, sum.Total, sum.CondBr, sum.Compares, sum.Predicated)
	if res.Mode == sim.ModeTrace {
		fmt.Printf("mode: trace replay  committed: %d (no timing model)\n", st.Committed)
	} else {
		fmt.Printf("cycles: %d  committed: %d  IPC: %.3f\n", st.Cycles, st.Committed, st.IPC())
	}
	fmt.Printf("cond branches: %d  mispredicts: %d  rate: %.2f%%  accuracy: %.2f%%\n",
		st.CondBranches, st.BranchMispred, 100*st.MispredictRate(), 100*st.Accuracy())
	fmt.Printf("early-resolved: %d (%.1f%% of branches)\n",
		st.EarlyResolved, 100*float64(st.EarlyResolved)/float64(max(st.CondBranches, 1)))
	if st.PredPredictions > 0 {
		fmt.Printf("predicate predictions: %d  wrong: %d (%.2f%%)\n",
			st.PredPredictions, st.PredMispredicts,
			100*float64(st.PredMispredicts)/float64(st.PredPredictions))
	}
	if st.ShadowCondBranches > 0 {
		fmt.Printf("shadow conventional predictor: %.2f%% mispredict rate\n", 100*st.ShadowMispredictRate())
	}
	if res.Mode == sim.ModeTrace {
		return // no pipeline machinery: flush, predication and cache counters do not exist
	}
	fmt.Printf("flushes: %d exec, %d predicate-consumer, %d override\n",
		st.ExecFlushes, st.PredFlushes, st.OverrideFlushes)
	fmt.Printf("predication: %d cancelled, %d unguarded, %d select µops\n",
		st.Cancelled, st.Unguarded, st.SelectOps)
	m := res.Mem
	fmt.Printf("caches: L1I %.2f%%  L1D %.2f%%  L2 %.2f%% miss; %d load forwards\n",
		100*m.L1IMissRate(), 100*m.L1DMissRate(), 100*m.L2MissRate(), st.LoadForwards)
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predsim:", err)
	os.Exit(1)
}
