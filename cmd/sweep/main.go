// Command sweep runs a declarative parameter sweep over the benchmark
// suite through the public repro/sim façade: named configuration axes
// are expanded into a cross-product (optionally Latin-hypercube
// subsampled), every point runs the benchmark × scheme matrix, and
// each run streams to stdout as a long-format CSV or NDJSON row
// carrying the point's axis values.
//
// Trace mode (the default) records each benchmark's trace once for
// the whole sweep, so a thousand-point sweep costs a thousand cheap
// replays per benchmark, not a thousand emulations — and fewer: points
// that differ only in knobs the replay engine never reads (timing
// knobs such as mispredict.penalty) share one replay.
//
// Examples:
//
//	sweep -axes pvt.entries=256,512,1024,2048 -schemes conventional,predpred,peppa -mode trace
//	sweep -axes "pvt.entries=512,2048;conf.bits=1,2,3,4" -suite gzip,vpr,twolf
//	sweep -axes pred.ghrbits=10,20,30 -sample 2 -seed 7 -format json
//	sweep -axes conf.bits=1,2,3 -workload examples/customworkload/phasehop.json
//	sweep -axes pvt.entries=512,3696 -workload int11
//	sweep -knobs
//
// -suite and -workload entries are interchangeable: each may be a
// suite benchmark name, a workload preset name (all, int11, fp11), or
// the path of a user-authored spec file (*.json / *.toml) — making
// every sweep a two-axis study over config knobs × workload shape.
//
// A summary (best point per scheme plus per-axis marginal tables)
// prints to stderr after the sweep, keeping stdout machine-readable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/sim"
)

func main() {
	var (
		axesFlag  = flag.String("axes", "", `sweep axes: "knob=v1,v2,...", ";"-separated (see -knobs)`)
		schemes   = flag.String("schemes", "conventional,predpred", "comma-separated prediction schemes")
		suite     = flag.String("suite", "", "comma-separated benchmark subset (empty = full suite)")
		workload  = flag.String("workload", "", "comma-separated extra workload entries — spec files (*.json/*.toml), workload preset names, or benchmark names — merged with -suite")
		mode      = flag.String("mode", "trace", "execution mode: trace (record-once replay) or pipeline (cycle model)")
		ifconv    = flag.Bool("ifconvert", false, "run the if-converted binary set")
		commits   = flag.Uint64("n", 300000, "committed-instruction budget per run")
		profSteps = flag.Uint64("profile", 200000, "profiling steps for workload preparation")
		sample    = flag.Int("sample", 0, "Latin-hypercube subsample size (0 = full cross-product)")
		seed      = flag.Int64("seed", 1, "subsample shuffle seed")
		format    = flag.String("format", "csv", "output format: csv | json (long format, one row per run)")
		par       = flag.Int("p", 0, "worker parallelism (0 = GOMAXPROCS)")
		summary   = flag.Bool("summary", true, "print best point and per-axis marginals to stderr")
		verbose   = flag.Bool("v", false, "print a throttled progress heartbeat (point, elapsed, ETA) to stderr")
		knobs     = flag.Bool("knobs", false, "list the sweep knobs and exit")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metrics   = flag.String("metrics", "", "write a metrics snapshot (spans, counters) to this JSON file at exit")
		manifest  = flag.String("manifest", "", "write one NDJSON run manifest per cell to this file at exit")
	)
	flag.Parse()

	if *knobs {
		for _, k := range sim.Knobs() {
			fmt.Printf("%-20s %s\n", k.Name, k.Doc)
		}
		return
	}
	if *axesFlag == "" {
		fmt.Fprintln(os.Stderr, "sweep: -axes is required (list knobs with -knobs)")
		flag.Usage()
		os.Exit(2)
	}

	m, err := sim.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	axes, err := parseAxes(*axesFlag)
	if err != nil {
		fatal(err)
	}

	opts := []sim.Option{
		sim.WithSuite(append(split(*suite), split(*workload)...)...),
		sim.WithSchemes(split(*schemes)...),
		sim.WithIfConversion(*ifconv),
		sim.WithCommits(*commits),
		sim.WithProfileSteps(*profSteps),
		sim.WithMode(m),
		sim.WithParallelism(*par),
	}
	if *verbose {
		opts = append(opts, sim.WithProgress(heartbeat(os.Stderr)))
	}
	var obsv *sim.Observer
	if *metrics != "" || *manifest != "" {
		obsv = sim.NewObserver()
		opts = append(opts, sim.WithObserver(obsv))
	}
	exp, err := sim.New(opts...)
	if err != nil {
		fatal(err)
	}
	sweepOpts := make([]sim.SweepOption, 0, len(axes)+1)
	for _, ax := range axes {
		sweepOpts = append(sweepOpts, sim.WithAxis(ax.name, ax.values...))
	}
	if *sample > 0 {
		sweepOpts = append(sweepOpts, sim.WithSample(*sample, *seed))
	}
	sw, err := sim.NewSweep(exp, sweepOpts...)
	if err != nil {
		fatal(err)
	}

	var sink sim.SweepSink
	switch *format {
	case "csv":
		sink = sim.NewSweepCSVSink(os.Stdout, sw.AxisNames())
	case "json":
		sink = sim.NewSweepJSONSink(os.Stdout)
	default:
		fatal(fmt.Errorf("unknown format %q (want csv or json)", *format))
	}
	sink = sim.ObservedSweepSink(obsv, sink)

	if *cpuprof != "" {
		stopProf, err := sim.StartCPUProfile(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runner, err := sw.Start(ctx)
	if err != nil {
		fatal(err)
	}
	var results []sim.SweepResult
	for sr := range runner.Results() {
		// Stream each point as it completes, so ^C mid-sweep still
		// leaves the finished points on stdout.
		if err := sink.Emit(sr); err != nil {
			fatal(err)
		}
		results = append(results, sr)
	}
	if err := sink.Close(); err != nil {
		fatal(err)
	}
	if err := runner.Wait(); err != nil {
		fatal(err)
	}
	sim.SortSweepResults(results)

	if *summary {
		printSummary(sw, split(*schemes), results)
	}

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

// heartbeat returns a progress callback that prints a throttled
// one-line status — cell count, sweep point, elapsed and ETA — at most
// every quarter second, plus the final cell. Progress callbacks are
// serialized by the runner, so the closure needs no lock.
func heartbeat(w io.Writer) func(sim.Progress) {
	var last time.Time
	return func(p sim.Progress) {
		now := time.Now()
		if p.Done < p.Total && now.Sub(last) < 250*time.Millisecond {
			return
		}
		last = now
		where := fmt.Sprintf("%s/%s", p.Bench, p.Scheme)
		if p.Point >= 0 {
			where = fmt.Sprintf("point %d %s", p.Point, where)
		}
		fmt.Fprintf(w, "[%d/%d] %s elapsed %s eta %s\n",
			p.Done, p.Total, where,
			p.Elapsed.Round(time.Millisecond), p.ETA.Round(time.Millisecond))
	}
}

// printSummary writes the aggregation layer's view — best point per
// scheme, then one marginal table per axis — to stderr.
func printSummary(sw *sim.Sweep, schemes []string, results []sim.SweepResult) {
	fmt.Fprintf(os.Stderr, "\n%d points, %d runs\n", len(results), totalRuns(results))
	for _, s := range schemes {
		best, rate, err := sim.BestPoint(results, s)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "best for %-14s %s  (%.2f%% mispredict)\n", s+":", best.Point, rate)
	}
	for _, axis := range sw.AxisNames() {
		rows, err := sim.MarginalTable(results, axis, schemes)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\n%s", sim.RenderMarginals(axis, schemes, rows))
	}
}

func totalRuns(rs []sim.SweepResult) int {
	n := 0
	for _, sr := range rs {
		n += len(sr.Results)
	}
	return n
}

type axisSpec struct {
	name   string
	values []any
}

// parseAxes parses the -axes grammar: semicolon-separated
// "knob=v1,v2,..." clauses.
func parseAxes(s string) ([]axisSpec, error) {
	var out []axisSpec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, vals, ok := strings.Cut(clause, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf(`sweep: axis %q is not "knob=v1,v2,..."`, clause)
		}
		spec := axisSpec{name: name}
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return nil, fmt.Errorf("sweep: axis %q has an empty value", clause)
			}
			spec.values = append(spec.values, v)
		}
		if len(spec.values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", clause)
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: -axes %q names no axes", s)
	}
	return out, nil
}

// split parses a comma-separated flag list ("" means nil).
func split(s string) []string { return sim.SplitEntries(s) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
