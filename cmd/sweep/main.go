// Command sweep runs a declarative parameter sweep over the benchmark
// suite through the public repro/sim façade: named configuration axes
// are expanded into a cross-product (optionally Latin-hypercube
// subsampled), every point runs the benchmark × scheme matrix, and
// each run streams to stdout as a long-format CSV or NDJSON row
// carrying the point's axis values.
//
// Trace mode (the default) records each benchmark's trace once for
// the whole sweep, and replays each distinct replay configuration once
// per benchmark: points that differ only in knobs the replay engine
// never reads (timing knobs such as mispredict.penalty) share one
// replay, and up to eight configurations, from any points, share one
// pass over the trace: a sweep decodes each trace once per eight
// distinct configurations, and emulates nothing after the first
// recording. Without -ifconvert nothing is profiled or if-converted.
//
// Examples:
//
//	sweep -axes pvt.entries=256,512,1024,2048 -schemes conventional,predpred,peppa -mode trace
//	sweep -axes "pvt.entries=512,2048;conf.bits=1,2,3,4" -workload gzip,vpr,twolf
//	sweep -axes pred.ghrbits=10,20,30 -sample 2 -seed 7 -format json
//	sweep -axes conf.bits=1,2,3 -workload examples/customworkload/phasehop.json
//	sweep -axes pvt.entries=512,3696 -workload int11
//	sweep -knobs
//
// -workload takes the same entries as cmd/experiments: suite benchmark
// names, workload preset names (all, int11, fp11) and paths of
// user-authored spec files (*.json), in any mix, making every
// sweep a two-axis study over config knobs × workload shape. Empty
// means the full suite.
//
// A summary (best point per scheme plus per-axis marginal tables)
// prints to stderr after the sweep, keeping stdout machine-readable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/cli"
	"repro/sim"
)

func main() {
	c := cli.New(cli.Sweep)
	var (
		axesFlag = flag.String("axes", "", `sweep axes: "knob=v1,v2,...", ";"-separated (see -knobs)`)
		schemes  = flag.String("schemes", "conventional,predpred", "comma-separated prediction schemes")
		ifconv   = flag.Bool("ifconvert", false, "run the if-converted binary set")
		sample   = flag.Int("sample", 0, "Latin-hypercube subsample size (0 = full cross-product)")
		seed     = flag.Int64("seed", 1, "subsample shuffle seed")
		par      = flag.Int("p", 0, "worker parallelism (0 = GOMAXPROCS)")
		summary  = flag.Bool("summary", true, "print best point and per-axis marginals to stderr")
		verbose  = flag.Bool("v", false, "print a throttled progress heartbeat (point, elapsed, ETA) to stderr")
		knobs    = flag.Bool("knobs", false, "list the sweep knobs and exit")
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

	c.Start()
	axes, err := parseAxes(*axesFlag)
	if err != nil {
		c.Fatal(err)
	}
	schemeNames := sim.SplitEntries(*schemes)
	opts := []sim.Option{
		sim.WithWorkload(c.Prepare()),
		sim.WithSchemes(schemeNames...),
		sim.WithIfConversion(*ifconv),
		sim.WithParallelism(*par),
	}
	for _, ax := range axes {
		opts = append(opts, sim.WithAxis(ax.name, ax.values...))
	}
	if *sample > 0 {
		opts = append(opts, sim.WithSample(*sample, *seed))
	}
	if *verbose {
		opts = append(opts, sim.WithProgress(heartbeat(os.Stderr)))
	}
	exp := c.Experiment(opts...)
	results := c.Run(exp)
	// Finish flushes the sink, so the whole of stdout precedes the
	// summary on a shared terminal.
	c.Finish()
	if *summary {
		printSummary(c, exp, schemeNames, results)
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
func printSummary(c *cli.Command, exp *sim.Experiment, schemes []string, results []sim.Result) {
	fmt.Fprintf(os.Stderr, "\n%d points, %d runs\n", len(exp.Points()), len(results))
	for _, s := range schemes {
		best, rate, err := sim.BestPoint(results, s)
		if err != nil {
			c.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "best for %-14s %s  (%.2f%% mispredict)\n", s+":", best, rate)
	}
	for _, axis := range exp.AxisNames() {
		rows, err := sim.MarginalTable(results, axis, schemes)
		if err != nil {
			c.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\n%s", sim.RenderMarginals(axis, schemes, rows))
	}
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
			return nil, fmt.Errorf(`axis %q is not "knob=v1,v2,..."`, clause)
		}
		spec := axisSpec{name: name}
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return nil, fmt.Errorf("axis %q has an empty value", clause)
			}
			spec.values = append(spec.values, v)
		}
		if len(spec.values) == 0 {
			return nil, fmt.Errorf("axis %q has no values", clause)
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-axes %q names no axes", s)
	}
	return out, nil
}
