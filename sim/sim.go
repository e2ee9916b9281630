// Package sim is the public façade for driving the predicate-prediction
// simulator of Quiñones, Parcerisa & González (HPCA 2007). It is the
// single entry point for every consumer — the CLIs, the examples, and
// the benchmark harness — and the seam future scaling work (sharded
// suites, new workloads, alternative backends) plugs into.
//
// The package offers five pieces:
//
//   - a functional-options experiment builder: New(WithSuite(...),
//     WithSchemes(...), WithIfConversion(true), WithCommits(n), ...)
//     describes a benchmark × scheme matrix declaratively;
//
//   - two execution modes per run: the full out-of-order cycle model
//     (ModePipeline, the default) and a record-once trace replay
//     (ModeTrace) that drives the predictor organizations from a
//     disk-cached branch/predicate trace, 15-80x faster — select with
//     WithMode(sim.ModeTrace | sim.ModePipeline);
//
//   - a streaming Runner: Start launches a bounded worker pool under a
//     context.Context; results arrive on a channel as each simulation
//     completes, with per-run progress callbacks and prompt
//     cancellation (simulations are sliced into small commit budgets
//     so a cancel lands mid-run, not after it);
//
//   - a named scheme registry: RegisterScheme adds new predictor
//     organizations — typically derived from a built-in base — without
//     editing the internal config.Scheme enum or its switch statements;
//
//   - pluggable result sinks: the paper's text tables plus JSON and
//     CSV emitters for machine-readable figures.
//
// A minimal experiment:
//
//	exp, err := sim.New(
//	    sim.WithSuite("gzip", "twolf"),
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
	"repro/internal/stats"
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

// SuiteNames returns the benchmark names of the full suite, in order.
func SuiteNames() []string {
	specs := bench.Suite()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// BuildBenchmark generates the (non-if-converted) binary for a named
// suite benchmark.
func BuildBenchmark(name string) (*Program, error) {
	spec, err := bench.Find(name)
	if err != nil {
		return nil, err
	}
	return bench.Build(spec), nil
}

// LoadBenchSpec reads and validates one user-authored benchmark spec
// from a JSON or TOML file (see DESIGN.md "Workloads" for the format).
func LoadBenchSpec(path string) (BenchSpec, error) { return bench.Load(path) }

// ValidateBenchSpec range checks every field of a spec, returning an
// error that names the offending field and its legal range.
func ValidateBenchSpec(s BenchSpec) error { return bench.Validate(s) }

// BuildSpec validates a benchmark spec (range checks plus the
// site-allocation guard, built-in suite specs exempt from the latter)
// and generates its (non-if-converted) binary.
func BuildSpec(s BenchSpec) (*Program, error) {
	if err := checkSpec(s); err != nil {
		return nil, err
	}
	return bench.Build(s), nil
}

// Experiment is an immutable description of a benchmark × scheme
// simulation matrix. Build one with New and run it with Start (for
// streaming results) or Run (for a sorted slice).
type Experiment struct {
	suite        []string    // suite entries as given; empty = full suite
	suiteSpecs   []BenchSpec // entries resolved at New time (nil when workload is set)
	schemes      []string    // registry scheme names
	ifConverted  bool
	tag          string
	commits      uint64
	profileSteps uint64
	mode         Mode   // execution mode bitmask (WithMode)
	traceDir     string // trace cache override (WithTraceDir)
	frontendDir  string // frontend-artifact cache dir; "" = live frontend (WithFrontendCache)
	mutate       func(*Config)
	parallelism  int
	progress     func(Progress)
	workload     *Workload
	observer     *Observer
}

// Option configures an Experiment under construction.
type Option func(*Experiment) error

// New validates the options and builds an Experiment. At least one
// scheme is required; an empty suite means the full 22 benchmarks.
func New(opts ...Option) (*Experiment, error) {
	e := &Experiment{
		commits:      300000,
		profileSteps: 200000,
		mode:         ModePipeline,
	}
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
			return nil, fmt.Errorf("sim: unknown scheme %q (registered: %v)", s, SchemeNames())
		}
	}
	if e.workload == nil {
		// Resolve every suite entry — benchmark names, workload registry
		// names, spec files — now, so a typo fails at build time instead
		// of mid-prepare. Start prepares from the resolved specs, not
		// the entries: a spec file edited or deleted between New and
		// Start cannot change (or break) the experiment.
		specs, err := expandSuite(e.suite)
		if err != nil {
			return nil, err
		}
		e.suiteSpecs = specs
	}
	return e, nil
}

// WithSuite restricts the experiment to the named benchmarks (in the
// given order). Each entry may be a suite benchmark name, a registered
// workload name ("all", "int11", "fp11", or anything RegisterWorkload
// added), or a spec file path (*.json / *.toml). With no arguments the
// full suite runs.
func WithSuite(names ...string) Option {
	return func(e *Experiment) error {
		e.suite = append([]string(nil), names...)
		return nil
	}
}

// WithSchemes sets the prediction schemes (registry names) each
// benchmark is simulated under, in table column order.
func WithSchemes(names ...string) Option {
	return func(e *Experiment) error {
		e.schemes = append([]string(nil), names...)
		return nil
	}
}

// WithIfConversion selects the if-converted binary set (Figure 6
// conditions) instead of the plain binaries (Figure 5 conditions).
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
// (0 = run each program to halt). Default 300000, the paper budget.
func WithCommits(n uint64) Option {
	return func(e *Experiment) error {
		e.commits = n
		return nil
	}
}

// WithProfileSteps sets the profiling budget used when the experiment
// has to prepare its own workload. Default 200000.
func WithProfileSteps(n uint64) Option {
	return func(e *Experiment) error {
		e.profileSteps = n
		return nil
	}
}

// WithConfigMutator adjusts each run's configuration after the scheme
// is applied — idealizations, ablations, resource sweeps. The mutator
// must be safe for concurrent calls (it receives a private copy).
func WithConfigMutator(f func(*Config)) Option {
	return func(e *Experiment) error {
		e.mutate = f
		return nil
	}
}

// WithParallelism bounds the worker pool (default GOMAXPROCS).
func WithParallelism(k int) Option {
	return func(e *Experiment) error {
		if k < 0 {
			return fmt.Errorf("sim: parallelism %d < 0", k)
		}
		e.parallelism = k
		return nil
	}
}

// WithFrontendCache enables the second-level frontend-artifact cache
// for trace-mode cells: each benchmark's scheme-independent frontend
// pass (predicate reconstruction, resolution positions, selectors) is
// materialized once per (trace, commit budget) — loaded from dir or
// built and stored there — and every replay is fed from the artifact's
// note stream instead of recomputing the frontend, bit-identically.
// An empty dir selects the default cache directory (the
// PREDSIM_FRONTEND_DIR environment variable, else the user cache
// dir). The tier is advisory: any artifact failure falls back to the
// live frontend.
// DefaultFrontendCacheDir returns the default frontend-artifact cache
// directory — the PREDSIM_FRONTEND_DIR environment variable when set,
// else a predsim subdirectory of the user cache dir. It is the
// directory WithFrontendCache("") selects.
func DefaultFrontendCacheDir() string { return stats.ArtifactDefaultDir() }

func WithFrontendCache(dir string) Option {
	return func(e *Experiment) error {
		if dir == "" {
			dir = stats.ArtifactDefaultDir()
		}
		e.frontendDir = dir
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

// WithWorkload reuses prepared binaries instead of building and
// profiling them at Start, so many experiments can share one
// preparation pass. The workload's benchmark set overrides WithSuite.
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
