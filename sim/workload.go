package sim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bench"
	"repro/internal/ifconvert"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Workload holds the benchmarks an experiment runs and their two binary
// sets of §4.1: plain and profile-guided if-converted. Preparing builds
// the plain binaries only; each benchmark is profiled and if-converted
// once, when the first experiment that reads the if-converted set
// starts on it. A Workload is built once and shared across experiments
// via WithWorkload, and its subsets share its binaries, so no
// benchmark is converted twice. Each binary also owns what trace-mode
// experiments derive from it: its trace, acquired once (from the disk
// cache or by recording) and held for every later experiment whose
// commit budget it covers, and the conventional predictors' outcomes
// their passes replayed, so a later experiment reads them instead of
// running those predictors again. A Workload therefore grows by about
// one byte per traced instruction and one bit per replayed event for
// each distinct conventional predictor.
// PrepareSpecs builds one from the specs SuiteSpecs resolves or from
// specs built in code; PreparePrograms builds one from programs.
type Workload struct {
	progs        []*prepared
	profileSteps uint64
}

// prepared is one benchmark of a Workload: its plain binary of §4.1,
// and the profile-guided if-converted one once convert has made it.
// Subsets point at the same one, so its conversion, its traces and its
// stored replay outcomes are shared.
type prepared struct {
	Spec      BenchSpec
	Plain     binary
	Converted binary     // Prog nil until convert
	specHash  string     // the manifests' spec_hash: %016x of the spec's hash, or "" for a program
	mu        sync.Mutex // held while converting
}

// binary is one of a benchmark's two binaries and what trace mode
// derives from it: the trace its experiments replay and the
// conventional predictors' outcomes their passes stored. Both depend
// on the binary alone (trace.Acquire's cache key, stats.Outcomes).
type binary struct {
	Prog *Program

	mu    sync.Mutex   // held while acquiring the trace
	tr    *trace.Trace // nil until the first trace-mode experiment
	cache string       // how the workload obtained tr: "hit" or "record"

	outcomes stats.Outcomes
}

// trace returns a trace of the binary that covers a run of budget
// commits, and how the workload obtained it ("hit" from the disk cache
// in dir, "record" by emulation). The binary keeps the trace it holds
// while that covers the budget; otherwise it acquires one through
// trace.Acquire, spanning the lookup and any recording on o, and holds
// that instead. A failed or cancelled acquisition keeps nothing, so the
// next caller tries again; callers that ask while one acquires wait for
// it.
func (b *binary) trace(ctx context.Context, dir string, budget uint64, o *Observer) (*trace.Trace, string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr != nil && b.tr.Covers(budget) {
		return b.tr, b.cache, nil
	}
	tr, pv, err := trace.Acquire(ctx, dir, b.Prog, budget, o.replayClock())
	o.span(PhaseCacheLookup, pv.LookupNS)
	if err != nil {
		return nil, "", err
	}
	if pv.Outcome == "record" {
		o.span(PhaseRecord, pv.RecordNS)
	}
	b.tr, b.cache = tr, pv.Outcome
	return tr, pv.Outcome, nil
}

// ifConversions counts profile-guided if-conversions, on the process
// registry: a run that reads only plain binaries leaves it at zero.
var ifConversions = obs.Default().Counter("prepare.conversions")

// convert builds the benchmark's if-converted binary unless an earlier
// experiment has: it profiles the plain binary for steps emulator steps
// under ctx (a cancel stops the profile within one slice of its steps)
// and if-converts the hammocks the profile selects. A failed or
// cancelled conversion leaves none, so the next caller tries again.
func (p *prepared) convert(ctx context.Context, steps uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Converted.Prog != nil {
		return nil
	}
	prof, err := ifconvert.ProfileProgramContext(ctx, p.Plain.Prog, steps)
	if err != nil {
		return err
	}
	res, err := ifconvert.Convert(p.Plain.Prog, ifconvert.DefaultOptions(prof))
	if err != nil {
		return fmt.Errorf("%s: %w", p.Spec.Name, err)
	}
	p.Converted.Prog = res.Prog
	ifConversions.Inc()
	return nil
}

// PrepareSpecs builds benchmark specs' plain binaries: the ones
// SuiteSpecs resolves from suite entries, or specs a caller constructs
// or mutates programmatically (workload-shape sweeps). Every spec is
// validated and duplicate names are rejected. profileSteps is the
// profiling budget of each benchmark's if-conversion, which runs when
// an if-converted experiment first starts on it.
func PrepareSpecs(specs []BenchSpec, profileSteps uint64) (*Workload, error) {
	return PrepareSpecsContext(context.Background(), specs, profileSteps)
}

// PrepareSpecsContext is PrepareSpecs under a context: benchmarks not
// yet built when ctx is cancelled are skipped and the context's error
// is returned, making preparation cancellable like simulation.
func PrepareSpecsContext(ctx context.Context, specs []BenchSpec, profileSteps uint64) (*Workload, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: no benchmark specs to prepare")
	}
	entries := make([]*prepared, len(specs))
	for i, s := range specs {
		if err := bench.Validate(s); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: prepare workload: %w", err)
		}
		entries[i] = &prepared{Spec: s, Plain: binary{Prog: bench.Build(s)}, specHash: fmt.Sprintf("%016x", s.Hash())}
	}
	return newWorkload(entries, profileSteps)
}

// PreparePrograms makes a workload of programs built in code or
// assembled from text, each a benchmark named by its Program.Name, with
// no class and no spec hash. A program's if-conversion, which runs when
// an if-converted experiment first starts on it, profiles
// DefaultProfileSteps instructions.
func PreparePrograms(progs []*Program) (*Workload, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("sim: no programs to prepare")
	}
	entries := make([]*prepared, len(progs))
	for i, p := range progs {
		if p == nil {
			return nil, fmt.Errorf("sim: program %d is nil", i)
		}
		entries[i] = &prepared{Spec: BenchSpec{Name: p.Name}, Plain: binary{Prog: p}}
	}
	return newWorkload(entries, DefaultProfileSteps)
}

// newWorkload is the two preparations' shared tail: every plain binary
// must be a valid program, and no two benchmarks may share a name.
func newWorkload(entries []*prepared, profileSteps uint64) (*Workload, error) {
	seen := map[string]bool{}
	for _, p := range entries {
		if err := p.Plain.Prog.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if seen[p.Spec.Name] {
			return nil, fmt.Errorf("sim: duplicate benchmark %q", p.Spec.Name)
		}
		seen[p.Spec.Name] = true
	}
	return &Workload{progs: entries, profileSteps: profileSteps}, nil
}

// convert makes sure every benchmark's if-converted binary is built,
// converting the ones no earlier experiment has in parallel under ctx,
// and returns the first failure in benchmark order.
func (w *Workload) convert(ctx context.Context) error {
	errs := make([]error, len(w.progs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range w.progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = p.convert(ctx, w.profileSteps)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("sim: if-convert workload: %w", err)
		}
	}
	return nil
}

// Names returns the prepared benchmark names in order.
func (w *Workload) Names() []string {
	names := make([]string, len(w.progs))
	for i, pg := range w.progs {
		names[i] = pg.Spec.Name
	}
	return names
}

// Subset returns a Workload restricted to the named benchmarks, in
// the given order, sharing the binaries already built, their traces
// and any conversion still to come. Like preparation, it rejects a
// benchmark named twice.
func (w *Workload) Subset(names ...string) (*Workload, error) {
	sub := &Workload{profileSteps: w.profileSteps}
	for _, n := range names {
		i := slices.IndexFunc(w.progs, func(pg *prepared) bool { return pg.Spec.Name == n })
		if i < 0 {
			return nil, fmt.Errorf("sim: workload has no benchmark %q", n)
		}
		if slices.Contains(sub.progs, w.progs[i]) {
			return nil, fmt.Errorf("sim: duplicate benchmark %q", n)
		}
		sub.progs = append(sub.progs, w.progs[i])
	}
	return sub, nil
}
