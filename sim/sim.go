// Package sim is the public façade for driving the predicate-prediction
// simulator of Quiñones, Parcerisa & González (HPCA 2007). It is the
// single entry point for every consumer — the CLIs, the examples, and
// the benchmark/ module — and the seam future scaling work (sharded
// suites, new workloads, alternative backends) plugs into.
//
// The package offers five pieces:
//
//   - a functional-options experiment builder: New(WithWorkload(wl),
//     WithSchemes(...), WithIfConversion(true), WithCommits(n), ...)
//     describes a benchmark × scheme matrix over a prepared Workload
//     declaratively, and WithAxis / WithSample turn it into a sweep:
//     the matrix runs once per point of the axes' grid (or
//     Latin-hypercube sample) of config knobs; an experiment without
//     axes is the one empty point;
//
//   - two execution modes, one per experiment: the full out-of-order
//     cycle model (ModePipeline, the default) and a record-once trace
//     replay (ModeTrace) that drives the predictor organizations from a
//     disk-cached branch/predicate trace, 15-80x faster;
//
//   - a streaming Runner: Start launches a bounded worker pool under a
//     context.Context; one Result per cell, carrying its Point, arrives
//     on a channel as each simulation completes, with per-run progress
//     callbacks and prompt cancellation (simulations are sliced into
//     small commit budgets so a cancel lands mid-run, not after it);
//
//   - a fixed scheme table: the paper's three organizations
//     (conventional, predpred, peppa) by name, resolved with
//     ResolveScheme; a variant of one (a split PVT, select-only
//     predication, the idealized runs) is a WithConfigMutator over its
//     entry, not a scheme of its own;
//
//   - figure folds and pluggable result sinks: Tabulate and
//     BreakdownTable fold one point's results into the paper's text
//     tables, BestPoint and MarginalTable fold a sweep's, and JSON and
//     CSV emitters write machine-readable figures, with a sweep's point
//     and axis columns when it has them.
//
// Every simulation is an Experiment over a Workload. Benchmarks enter
// as specs (SuiteSpecs, then PrepareSpecsContext); programs built in
// code or assembled from text enter through PreparePrograms, each one a
// benchmark of its own.
//
// A minimal experiment: resolve the suite entries, prepare their
// binaries once, and run the matrix over them (the if-converted set is
// built when an if-converted experiment first starts on the workload).
//
//	specs, err := sim.SuiteSpecs("gzip", "twolf")
//	wl, err := sim.PrepareSpecsContext(ctx, specs, sim.DefaultProfileSteps)
//	exp, err := sim.New(
//	    sim.WithWorkload(wl),
//	    sim.WithSchemes("conventional", "predpred"),
//	    sim.WithCommits(60000),
//	)
//	results, err := exp.Run(ctx)
//	tab, err := sim.Tabulate("Figure 5 (mini)", exp.Schemes(), results)
//	fmt.Print(tab.Render())
package sim

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/program"
)

// Config is the full machine configuration (the paper's Table 1). It
// aliases the internal config type so mutators can touch every knob —
// idealizations, predication mode, cache geometry — without importing
// internal packages.
type Config = config.Config

// Stats is the per-run statistics block accumulated by the pipeline.
type Stats = pipeline.Stats

// Program is an assembled or generated binary the simulator executes.
type Program = program.Program

// BenchSpec parameterizes one synthetic benchmark of the §4.1 suite.
type BenchSpec = bench.Spec

// PredicationMode selects how if-converted (guarded) instructions are
// handled at rename; see the internal config package for semantics.
type PredicationMode = config.PredicationMode

// Re-exported predication modes, so experiment mutators can force the
// select-µop baseline or the paper's selective predication.
const (
	PredicationSelect    = config.PredicationSelect
	PredicationSelective = config.PredicationSelective
)

// DefaultConfig returns the Table 1 configuration (conventional
// two-level predictor, select-style predication).
func DefaultConfig() Config { return config.Default() }

// Benchmarks returns the full 22-benchmark synthetic SPEC2000
// stand-in suite in the paper's presentation order.
func Benchmarks() []BenchSpec { return bench.Suite() }

// BuildBenchmark generates the (non-if-converted) binary for a named
// suite benchmark.
func BuildBenchmark(name string) (*Program, error) {
	spec, err := bench.Find(name)
	if err != nil {
		return nil, err
	}
	return bench.Build(spec), nil
}

// BuildSpec validates a benchmark spec (range checks plus the
// site-allocation guard) and generates its (non-if-converted) binary.
func BuildSpec(s BenchSpec) (*Program, error) {
	if err := bench.Validate(s); err != nil {
		return nil, err
	}
	return bench.Build(s), nil
}

// Experiment is an immutable description of a benchmark × scheme
// simulation matrix, run at every point of its axes. Build one with New
// and run it with Start (for streaming results) or Run (for a sorted
// slice).
type Experiment struct {
	schemes     []string // scheme table names
	ifConverted bool
	tag         string
	commits     uint64
	mode        Mode   // execution mode (WithMode)
	traceDir    string // trace cache override (WithTraceDir)
	mutate      func(*Config)
	parallelism int
	progress    func(Progress)
	workload    *Workload
	observer    *Observer
	axes        []axis // sweep axes, in declaration order (WithAxis)
	sample      int    // Latin-hypercube sample size; 0 = full grid
	seed        int64  // sample shuffle seed
}

// The default budgets of every entry point. The CLIs and examples read
// them, so a change of default is made here once.
const (
	// DefaultCommits is the committed-instruction budget per run: the
	// paper's 300k.
	DefaultCommits = 300000
	// DefaultProfileSteps is the number of emulator steps each
	// benchmark is profiled for before if-conversion.
	DefaultProfileSteps = 200000
)

// Option configures an Experiment under construction.
type Option func(*Experiment) error

// New validates the options and builds an Experiment. A prepared
// workload (WithWorkload) and at least one scheme are required.
func New(opts ...Option) (*Experiment, error) {
	e := &Experiment{commits: DefaultCommits}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if len(e.schemes) == 0 {
		return nil, fmt.Errorf("sim: experiment needs at least one scheme (WithSchemes)")
	}
	for _, s := range e.schemes {
		if _, ok := ResolveScheme(s); !ok {
			return nil, fmt.Errorf("sim: unknown scheme %q (schemes: %v)", s, SchemeNames())
		}
	}
	if e.workload == nil {
		return nil, fmt.Errorf("sim: experiment needs a prepared workload (WithWorkload; see PrepareSpecs and PreparePrograms)")
	}
	if err := e.checkAxes(); err != nil {
		return nil, err
	}
	return e, nil
}

// WithSchemes sets the prediction schemes (scheme table names) each
// benchmark is simulated under, in table column order.
func WithSchemes(names ...string) Option {
	return func(e *Experiment) error {
		e.schemes = append([]string(nil), names...)
		return nil
	}
}

// WithIfConversion selects the if-converted binary set (Figure 6
// conditions) instead of the plain binaries (Figure 5 conditions). The
// workload profiles and if-converts each benchmark when the first such
// experiment starts on it.
func WithIfConversion(on bool) Option {
	return func(e *Experiment) error {
		e.ifConverted = on
		return nil
	}
}

// WithTag labels every result of the experiment (e.g. "fig5"), so
// machine-readable sinks can distinguish interleaved experiments.
func WithTag(tag string) Option {
	return func(e *Experiment) error {
		e.tag = tag
		return nil
	}
}

// WithCommits sets the committed-instruction budget per run
// (0 = run each program to halt). Default DefaultCommits.
func WithCommits(n uint64) Option {
	return func(e *Experiment) error {
		e.commits = n
		return nil
	}
}

// WithConfigMutator adjusts each run's configuration after the scheme
// is applied — idealizations, ablations, resource sweeps. Start calls
// the mutator once per (point, scheme), on its own goroutine, with a
// private copy of the configuration; no worker calls it.
func WithConfigMutator(f func(*Config)) Option {
	return func(e *Experiment) error {
		e.mutate = f
		return nil
	}
}

// WithParallelism bounds the worker pool's cell workers (default
// GOMAXPROCS).
func WithParallelism(k int) Option {
	return func(e *Experiment) error {
		if k < 0 {
			return fmt.Errorf("sim: parallelism %d < 0", k)
		}
		e.parallelism = k
		return nil
	}
}

// WithProgress installs a callback invoked after every completed run,
// from worker goroutines but never concurrently.
func WithProgress(f func(Progress)) Option {
	return func(e *Experiment) error {
		e.progress = f
		return nil
	}
}

// WithWorkload sets the prepared binaries the experiment runs: its
// benchmarks, in the workload's order. Every experiment needs one, and
// many experiments can share one preparation pass (PrepareSpecs) and
// its if-conversions.
func WithWorkload(w *Workload) Option {
	return func(e *Experiment) error {
		if w == nil {
			return fmt.Errorf("sim: nil workload")
		}
		e.workload = w
		return nil
	}
}

// Schemes returns the experiment's scheme names in column order.
func (e *Experiment) Schemes() []string {
	return append([]string(nil), e.schemes...)
}
