// Package cli is the front end the simulator commands (experiments,
// predsim and sweep) share: the flags they all take, the SIGINT
// context, the observer, CPU and heap profiling, the -format sink, the
// Start → Emit → Wait drain and the end-of-run metric and manifest
// writes. It reaches the simulator only through the sim façade.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/sim"
)

// Settings are what a command's shared flags differ in.
type Settings struct {
	// Name prefixes every error the command reports.
	Name string
	// Mode is the -mode default.
	Mode string
	// Formats are the -format values, the default first; a command
	// without any has no -format flag and prints text.
	Formats []string
	// WorkloadUsage documents -workload; empty means the
	// comma-separated entry list that SuiteSpecs resolves.
	WorkloadUsage string
}

// The three commands' settings.
var (
	Experiments = Settings{Name: "experiments", Mode: "pipeline", Formats: []string{"text", "json", "csv"}}
	Predsim     = Settings{Name: "predsim", Mode: "pipeline",
		WorkloadUsage: "the workload entry to run (empty = gzip): a benchmark name (see -list), a workload preset name (see -workloads) or a spec file (*.json); must resolve to exactly one benchmark"}
	Sweep = Settings{Name: "sweep", Mode: "trace", Formats: []string{"csv", "json"}}
)

const suiteUsage = "comma-separated workload entries — spec files (*.json), workload preset names (all, int11, fp11), or benchmark names (empty = the full suite)"

// Command is one run of a command: its shared flag values, and what
// Start sets up from them.
type Command struct {
	Commits      uint64
	ProfileSteps uint64
	Workload     string
	// Format is the -format value; "text" when the command has no
	// -format flag.
	Format string
	// Mode is the parsed -mode, set by Start.
	Mode sim.Mode
	// Observer is non-nil under -metrics or -manifest, set by Start.
	Observer *sim.Observer

	name                                      string
	formats                                   []string
	mode                                      string
	cpuProfile, memProfile, metrics, manifest string

	ctx     context.Context
	stop    context.CancelFunc
	cpuFile *os.File // the -cpuprofile file while the profile runs
	sink    sim.Sink // the -format sink, opened by the first Run; nil for text
	closed  bool
}

// New registers the shared flags on the command line's flag set.
func New(s Settings) *Command { return register(flag.CommandLine, s) }

func register(fs *flag.FlagSet, s Settings) *Command {
	c := &Command{name: s.Name, formats: s.Formats, Format: "text"}
	fs.Uint64Var(&c.Commits, "n", sim.DefaultCommits, "committed-instruction budget per run")
	fs.Uint64Var(&c.ProfileSteps, "profile", sim.DefaultProfileSteps, "profiling steps for if-conversion")
	fs.StringVar(&c.mode, "mode", s.Mode, "execution mode: pipeline (cycle model) or trace (record-once trace replay; accuracy statistics only)")
	usage := s.WorkloadUsage
	if usage == "" {
		usage = suiteUsage
	}
	fs.StringVar(&c.Workload, "workload", "", usage)
	if len(s.Formats) > 0 {
		fs.StringVar(&c.Format, "format", s.Formats[0], "output format: "+strings.Join(s.Formats, " | "))
	}
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&c.metrics, "metrics", "", "write a metrics snapshot (spans, counters) to this JSON file at exit")
	fs.StringVar(&c.manifest, "manifest", "", "write one NDJSON run manifest per run to this file at exit")
	return c
}

// Start checks the parsed shared flags and starts what they ask for:
// the observer, the CPU profile and a context that SIGINT cancels,
// which it returns. Finish undoes it.
func (c *Command) Start() context.Context {
	m, err := sim.ParseMode(c.mode)
	if err != nil {
		c.Fatal(err)
	}
	c.Mode = m
	if c.metrics != "" || c.manifest != "" {
		c.Observer = sim.NewObserver()
	}
	if len(c.formats) > 0 && !slices.Contains(c.formats, c.Format) {
		c.Fatal(fmt.Errorf("unknown format %q (want %s)", c.Format, orList(c.formats)))
	}
	if c.cpuProfile != "" {
		f, err := createFile(c.cpuProfile)
		if err != nil {
			c.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			c.Fatal(err)
		}
		c.cpuFile = f
	}
	c.ctx, c.stop = signal.NotifyContext(context.Background(), os.Interrupt)
	return c.ctx
}

// orList joins values as "a or b" or "a, b, or c".
func orList(vs []string) string {
	if len(vs) == 2 {
		return vs[0] + " or " + vs[1]
	}
	return strings.Join(vs[:len(vs)-1], ", ") + ", or " + vs[len(vs)-1]
}

// Prepare resolves -workload and prepares its binaries with
// -profile steps under the SIGINT context, so ^C while profiling exits
// the same way as ^C during a run.
func (c *Command) Prepare() *sim.Workload {
	specs, err := sim.SuiteSpecs(sim.SplitEntries(c.Workload)...)
	if err != nil {
		c.Fatal(err)
	}
	wl, err := sim.PrepareSpecsContext(c.ctx, specs, c.ProfileSteps)
	if err != nil {
		c.Fatal(err)
	}
	return wl
}

// Experiment builds an experiment from opts, at the -n budget in the
// -mode mode and watched by the observer.
func (c *Command) Experiment(opts ...sim.Option) *sim.Experiment {
	opts = append([]sim.Option{sim.WithCommits(c.Commits), sim.WithMode(c.Mode)}, opts...)
	if c.Observer != nil {
		opts = append(opts, sim.WithObserver(c.Observer))
	}
	exp, err := sim.New(opts...)
	if err != nil {
		c.Fatal(err)
	}
	return exp
}

// Run runs exp to completion and returns its results in matrix order.
// The first Run opens the -format sink, with exp's axis columns; every
// Run streams its results into it.
func (c *Command) Run(exp *sim.Experiment) []sim.Result {
	if c.sink == nil {
		switch c.Format {
		case "json":
			c.sink = sim.ObservedSink(c.Observer, sim.NewJSONSink(os.Stdout))
		case "csv":
			c.sink = sim.ObservedSink(c.Observer, sim.NewCSVSink(os.Stdout, exp.AxisNames()...))
		}
	}
	results, err := c.drain(exp)
	if err != nil {
		c.Fatal(err)
	}
	return results
}

// drain starts exp and emits each result into the sink as it
// completes, so ^C mid-run still leaves every finished result on
// stdout. It returns the results in matrix order, or the runner's
// error once every result it produced is emitted.
func (c *Command) drain(exp *sim.Experiment) ([]sim.Result, error) {
	runner, err := exp.Start(c.ctx)
	if err != nil {
		return nil, err
	}
	var results []sim.Result
	for r := range runner.Results() {
		if c.sink != nil {
			if err := c.sink.Emit(r); err != nil {
				return nil, err
			}
		}
		results = append(results, r)
	}
	if err := runner.Wait(); err != nil {
		return results, err
	}
	sim.SortResults(results)
	return results, nil
}

// closeSink flushes and closes the sink, once.
func (c *Command) closeSink() error {
	if c.sink == nil || c.closed {
		return nil
	}
	c.closed = true
	return c.sink.Close()
}

// Finish closes the sink, writes the -metrics, -manifest and
// -memprofile files, stops the CPU profile and releases the SIGINT
// context.
func (c *Command) Finish() {
	if err := c.closeSink(); err != nil {
		c.Fatal(err)
	}
	if c.metrics != "" {
		c.writeFile(c.metrics, c.Observer.WriteMetrics)
	}
	if c.manifest != "" {
		c.writeFile(c.manifest, c.Observer.WriteManifests)
	}
	if c.memProfile != "" {
		runtime.GC() // the profile shows live objects, as net/http/pprof's heap endpoint does
		c.writeFile(c.memProfile, pprof.WriteHeapProfile)
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := c.cpuFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		}
	}
	if c.stop != nil {
		c.stop()
	}
}

// writeFile creates path and streams write into it; an error is fatal.
func (c *Command) writeFile(path string, write func(io.Writer) error) {
	f, err := createFile(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		c.Fatal(err)
	}
}

// createFile creates path, and its parent directory when missing, so
// the output files can land in a fresh per-run directory.
func createFile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}

// Fatal flushes the sink, so the rows already emitted (records that
// carry per-run errors included) reach stdout, then reports err under
// the command's name and exits with status 1.
func (c *Command) Fatal(err error) {
	_ = c.closeSink() // the exit reports err; a flush error would only hide it
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
	os.Exit(1)
}
