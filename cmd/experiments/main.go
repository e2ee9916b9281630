// Command experiments regenerates every table and figure of the
// paper's evaluation section (§4) through the public repro/sim façade:
//
//	-table1    Table 1, the architectural parameters
//	-fig5      Figure 5: misprediction rates, non-if-converted binaries
//	-fig5ideal §4.2 idealized variant (no aliasing, perfect history)
//	-fig6a     Figure 6a: misprediction rates, if-converted binaries
//	-fig6b     Figure 6b: early-resolved vs correlation breakdown
//	-fig6ideal §4.3 idealized variant
//	-ablate    design-choice ablations from §3.2/§3.3
//	-all       everything above
//
// -format json|csv streams every run as machine-readable records
// (tagged with the figure name) instead of the text tables; -v prints
// per-run progress to stderr. Runs are cancellable with ^C.
//
// -mode trace regenerates the accuracy figures from record-once
// branch/predicate traces (disk-cached; ~20x faster end to end)
// instead of the cycle model; the IPC-based ablations need the
// pipeline and are skipped in that mode.
//
// -workload swaps the benchmark set: any mix of spec files
// (*.json/*.toml), workload preset names (all, int11, fp11) and
// suite benchmark names, so every figure can be regenerated over
// user-authored branch behaviours.
//
// Absolute rates depend on the synthetic SPEC2000 stand-in suite (see
// DESIGN.md); the comparisons and their shapes are the reproduction
// target, recorded in EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/sim"
)

var (
	two   = []string{"conventional", "predpred"}
	three = []string{"peppa", "conventional", "predpred"}
)

// idealize is the §4.2/§4.3 configuration mutator.
func idealize(c *sim.Config) { c.IdealNoAlias, c.IdealPerfectGHR = true, true }

// driver carries the shared pieces every figure run needs.
type driver struct {
	ctx      context.Context
	workload *sim.Workload
	commits  uint64
	mode     sim.Mode
	verbose  bool
	sink     sim.Sink      // non-nil in machine-readable mode
	obsv     *sim.Observer // non-nil when -metrics/-manifest requested
}

// run executes one tagged benchmark × scheme matrix and returns the
// results in matrix order, streaming them into the machine-readable
// sink when one is installed.
func (d *driver) run(tag string, schemes []string, ifConverted bool, mutate func(*sim.Config)) []sim.Result {
	opts := []sim.Option{
		sim.WithWorkload(d.workload),
		sim.WithTag(tag),
		sim.WithSchemes(schemes...),
		sim.WithIfConversion(ifConverted),
		sim.WithCommits(d.commits),
		sim.WithConfigMutator(mutate),
		sim.WithMode(d.mode),
	}
	if d.obsv != nil {
		opts = append(opts, sim.WithObserver(d.obsv))
	}
	if d.verbose {
		opts = append(opts, sim.WithProgress(func(p sim.Progress) {
			fmt.Fprintf(os.Stderr, "[%s %d/%d] %s/%s\n", tag, p.Done, p.Total, p.Bench, p.Scheme)
		}))
	}
	exp, err := sim.New(opts...)
	if err != nil {
		d.fatal(err)
	}
	runner, err := exp.Start(d.ctx)
	if err != nil {
		d.fatal(err)
	}
	var results []sim.Result
	for r := range runner.Results() {
		// Stream each record into the machine-readable sink as it
		// completes, so ^C mid-matrix still leaves the finished runs
		// on stdout.
		if d.sink != nil {
			if err := d.sink.Emit(r); err != nil {
				d.fatal(err)
			}
		}
		results = append(results, r)
	}
	if err := runner.Wait(); err != nil {
		d.fatal(err)
	}
	sim.SortResults(results)
	return results
}

// text reports only in text mode, so machine-readable output stays pure.
func (d *driver) text(format string, args ...any) {
	if d.sink == nil {
		fmt.Printf(format, args...)
	}
}

func main() {
	var (
		table1    = flag.Bool("table1", false, "print Table 1")
		fig5      = flag.Bool("fig5", false, "run Figure 5")
		fig5ideal = flag.Bool("fig5ideal", false, "run the §4.2 idealized experiment")
		fig6a     = flag.Bool("fig6a", false, "run Figure 6a")
		fig6b     = flag.Bool("fig6b", false, "run Figure 6b")
		fig6ideal = flag.Bool("fig6ideal", false, "run the §4.3 idealized experiment")
		ablate    = flag.Bool("ablate", false, "run the design-choice ablations")
		all       = flag.Bool("all", false, "run everything")
		commits   = flag.Uint64("n", 300000, "committed instructions per run")
		profSteps = flag.Uint64("profile", 200000, "profiling steps for if-conversion")
		workload  = flag.String("workload", "", "comma-separated workload entries — spec files (*.json/*.toml), workload preset names (all, int11, fp11), or benchmark names (empty = the full suite)")
		format    = flag.String("format", "text", "output format: text | json | csv")
		mode      = flag.String("mode", "pipeline", "execution mode: pipeline (cycle model) or trace (record-once trace replay; accuracy figures only, ~10-100x faster)")
		verbose   = flag.Bool("v", false, "print per-run progress to stderr")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metrics   = flag.String("metrics", "", "write a metrics snapshot (spans, counters) to this JSON file at exit")
		manifest  = flag.String("manifest", "", "write one NDJSON run manifest per run to this file at exit")
	)
	flag.Parse()
	if *all {
		*table1, *fig5, *fig5ideal, *fig6a, *fig6b, *fig6ideal, *ablate = true, true, true, true, true, true, true
	}
	if !(*table1 || *fig5 || *fig5ideal || *fig6a || *fig6b || *fig6ideal || *ablate) {
		flag.Usage()
		os.Exit(2)
	}

	d := &driver{commits: *commits, verbose: *verbose}
	m, err := sim.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	d.mode = m
	if *metrics != "" || *manifest != "" {
		d.obsv = sim.NewObserver()
	}
	switch *format {
	case "text":
	case "json":
		d.sink = sim.ObservedSink(d.obsv, sim.NewJSONSink(os.Stdout))
	case "csv":
		d.sink = sim.ObservedSink(d.obsv, sim.NewCSVSink(os.Stdout))
	default:
		fatal(fmt.Errorf("unknown format %q (want text, json, or csv)", *format))
	}
	if *cpuprof != "" {
		stopProf, err := sim.StartCPUProfile(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	if *table1 {
		d.text("%s\n", sim.DefaultConfig().Table1())
	}

	needSim := *fig5 || *fig5ideal || *fig6a || *fig6b || *fig6ideal || *ablate
	if !needSim {
		writeObservations(d.obsv, *metrics, *manifest, *memprof)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	d.ctx = ctx

	wl, err := sim.PrepareWorkload(sim.SplitEntries(*workload), *profSteps)
	if err != nil {
		d.fatal(err)
	}
	d.workload = wl

	if *fig5 {
		runs := d.run("fig5", two, false, nil)
		tab := d.mustTab("Figure 5: branch misprediction rate, NON-if-converted binaries", two, runs)
		d.text("%s\n", tab.Render())
		d.text("average accuracy increase of the predicate predictor: %+.2fpp (paper: +1.86%%)\n",
			tab.AccuracyDelta("predpred", "conventional"))
		d.text("predicate predictor best on %d of %d benchmarks, %d ties (paper: all but 3)\n\n",
			tab.Wins("predpred"), len(tab.Rows), tab.Ties("predpred"))
	}

	if *fig5ideal {
		runs := d.run("fig5ideal", two, false, idealize)
		tab := d.mustTab("§4.2 idealized (no aliasing, perfect global history), NON-if-converted", two, runs)
		d.text("%s\n", tab.Render())
		d.text("idealized accuracy increase: %+.2fpp (paper: +2.24%%, consistent across all benchmarks)\n\n",
			tab.AccuracyDelta("predpred", "conventional"))
	}

	// Figures 6a and 6b share one run matrix; tag it for whichever
	// figure(s) were actually requested.
	var fig6runs []sim.Result
	if *fig6a || *fig6b {
		tag := "fig6a"
		switch {
		case *fig6a && *fig6b:
			tag = "fig6a+fig6b"
		case *fig6b:
			tag = "fig6b"
		}
		fig6runs = d.run(tag, three, true, nil)
	}

	if *fig6a {
		tab := d.mustTab("Figure 6a: branch misprediction rate, IF-CONVERTED binaries", three, fig6runs)
		d.text("%s\n", tab.Render())
		d.text("average accuracy increase vs best other scheme: %+.2fpp (paper: +1.5%%)\n",
			tab.AccuracyDelta("predpred", bestOther(tab)))
		d.text("predicate predictor best on %d of %d benchmarks, %d ties (paper: all but twolf)\n\n",
			tab.Wins("predpred"), len(tab.Rows), tab.Ties("predpred"))
	}

	if *fig6b {
		bd, err := sim.BreakdownTable(fig6runs)
		if err != nil {
			d.fatal(err)
		}
		d.text("%s\n", sim.RenderBreakdown(bd))
		d.text("paper: +1.0pp correlation, +0.5pp early-resolved on average;\n")
		d.text("the correlation bar also absorbs the scheme's negative effects (§4.3)\n\n")
	}

	if *fig6ideal {
		runs := d.run("fig6ideal", two, true, idealize)
		tab := d.mustTab("§4.3 idealized (no aliasing, perfect global history), IF-CONVERTED", two, runs)
		d.text("%s\n", tab.Render())
		d.text("idealized accuracy increase: %+.2fpp (paper: ~+2%%, consistent improvement)\n\n",
			tab.AccuracyDelta("predpred", "conventional"))
	}

	if *ablate {
		runAblations(d)
	}

	if d.sink != nil {
		if err := d.sink.Close(); err != nil {
			fatal(err)
		}
	}
	writeObservations(d.obsv, *metrics, *manifest, *memprof)
}

// writeObservations flushes the -metrics / -manifest / -memprofile
// outputs at the end of a run.
func writeObservations(o *sim.Observer, metrics, manifest, memprof string) {
	if metrics != "" {
		if err := o.WriteMetricsFile(metrics); err != nil {
			fatal(err)
		}
	}
	if manifest != "" {
		if err := o.WriteManifestsFile(manifest); err != nil {
			fatal(err)
		}
	}
	if memprof != "" {
		if err := sim.WriteHeapProfile(memprof); err != nil {
			fatal(err)
		}
	}
}

// bestOther returns the non-predicate scheme with the lowest average
// rate in the table.
func bestOther(t *sim.Table) string {
	best := "conventional"
	for _, s := range t.Schemes {
		if s != "predpred" && t.Average(s) < t.Average(best) {
			best = s
		}
	}
	return best
}

// runAblations exercises the §3.2/§3.3 design choices on a benchmark
// subset: shared-PVT-with-two-hashes vs split PVT, selective
// predication vs select µops (IPC), confidence counter width, and the
// GHR corruption effect (repair on/off).
func runAblations(d *driver) {
	// The ablation subset is a fixed slice of the built-in suite; under
	// a custom -workload only the members actually prepared can run.
	want := []string{"gzip", "vpr", "twolf", "parser", "swim", "mesa"}
	var have []string
	for _, n := range want {
		if _, ok := d.workload.Regions(n); ok {
			have = append(have, n)
		}
	}
	if len(have) == 0 {
		d.text("Ablations need suite benchmarks (%s); none in this workload, skipped.\n\n", strings.Join(want, ", "))
		return
	}
	subset, err := d.workload.Subset(have...)
	if err != nil {
		d.fatal(err)
	}
	sub := *d // every shared piece, the observer included
	sub.workload = subset
	sd := &sub
	one := []string{"predpred"}

	d.text("Ablation 1: shared PVT + two hash functions vs statically split PVT (§3.3)\n")
	shared := sd.mustTab("  pvt", one, sd.run("ablate-pvt", one, true, nil))
	split := sd.mustTab("  pvt", one, sd.run("ablate-pvt-split", one, true,
		func(c *sim.Config) { c.SplitPVT = true }))
	d.text("%-10s %10s %10s\n", "benchmark", "shared", "split")
	for i, r := range shared.Rows {
		d.text("%-10s %9.2f%% %9.2f%%\n", r.Bench, r.Rate["predpred"], split.Rows[i].Rate["predpred"])
	}
	d.text("%-10s %9.2f%% %9.2f%%  (shared should not be worse: it avoids wasting rows on p0 destinations)\n\n",
		"AVG", shared.Average("predpred"), split.Average("predpred"))

	if d.mode == sim.ModeTrace {
		// Ablations 2 and 3 report IPC and rename-stage predication
		// counters, which only the pipeline's timing model produces.
		d.text("Ablations 2 and 3 need the pipeline timing model; skipped in trace mode.\n\n")
		runGHRAblation(d, sd)
		return
	}

	d.text("Ablation 2: selective predication vs select-µop baseline (IPC on if-converted code, §3.2)\n")
	selective := sd.mustTab("  predication", one, sd.run("ablate-predication", one, true, nil))
	selectOnly := sd.mustTab("  predication", one, sd.run("ablate-predication-select", one, true,
		func(c *sim.Config) { c.Predication = sim.PredicationSelect }))
	d.text("%-10s %10s %10s %8s\n", "benchmark", "selective", "select", "speedup")
	var sSel, sBase float64
	for i, r := range selective.Rows {
		selSt, baseSt := r.Runs["predpred"], selectOnly.Rows[i].Runs["predpred"]
		a, b := selSt.IPC(), baseSt.IPC()
		sSel += a
		sBase += b
		d.text("%-10s %10.3f %10.3f %7.1f%%\n", r.Bench, a, b, 100*(a/b-1))
	}
	n := float64(len(selective.Rows))
	d.text("%-10s %10.3f %10.3f %7.1f%%\n", "AVG", sSel/n, sBase/n, 100*(sSel/sBase-1))
	d.text("  note: the paper cites +11%% IPC from [16] against weaker predication\n")
	d.text("  baselines (e.g. predict-all + selective replay); our baseline is already\n")
	d.text("  an efficient select-µop scheme, so the recovery cost of mispredicted\n")
	d.text("  confident predicates dominates here (see EXPERIMENTS.md).\n\n")

	d.text("Ablation 3: confidence counter width (selective predication aggressiveness)\n")
	d.text("%-6s %12s %12s %12s %10s\n", "bits", "mispred", "cancelled", "selectops", "IPC")
	for _, bits := range []uint{1, 2, 3, 4} {
		bits := bits
		runs := sd.run(fmt.Sprintf("ablate-conf%d", bits), one, true,
			func(c *sim.Config) { c.ConfBits = bits })
		var mis, ipc float64
		var can, sel uint64
		for _, r := range runs {
			mis += 100 * r.Stats.MispredictRate()
			ipc += r.Stats.IPC()
			can += r.Stats.Cancelled
			sel += r.Stats.SelectOps
		}
		n := float64(len(runs))
		d.text("%-6d %11.2f%% %12d %12d %10.3f\n", bits, mis/n, can, sel, ipc/n)
	}
	d.text("\n")

	runGHRAblation(d, sd)
}

// runGHRAblation is Ablation 4, a pure accuracy comparison available
// in both execution modes.
func runGHRAblation(d, sd *driver) {
	one := []string{"predpred"}
	d.text("Ablation 4: global-history corruption (§3.3) — with and without the\n")
	d.text("recovery action that repairs a resolved compare's speculative GHR bit\n")
	repaired := sd.run("ablate-ghr-repaired", one, true, nil)
	corrupted := sd.run("ablate-ghr-corrupted", one, true,
		func(c *sim.Config) { c.DisableGHRRepair = true })
	var a, b float64
	for i := range repaired {
		a += 100 * repaired[i].Stats.MispredictRate()
		b += 100 * corrupted[i].Stats.MispredictRate()
	}
	n := float64(len(repaired))
	d.text("with repair: %.2f%%   without repair: %.2f%%   corruption cost: %.2fpp (paper: <0.5pp residual)\n",
		a/n, b/n, b/n-a/n)
}

func (d *driver) mustTab(title string, schemes []string, runs []sim.Result) *sim.Table {
	t, err := sim.Tabulate(title, schemes, runs)
	if err != nil {
		d.fatal(err)
	}
	return t
}

// fatal closes the machine-readable sink (flushing buffered rows —
// including records that carry per-run errors) before exiting.
func (d *driver) fatal(err error) {
	if d.sink != nil {
		d.sink.Close()
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
