package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Warm-start bookkeeping for sweeps: a warmCache memoizes validated
// per-scheme replay statistics per (benchmark, non-carryover axis
// coordinates), so a sweep point differing from an already-replayed
// one only in carryover knobs — knobs the replay engine provably never
// reads (config.Mutator.Carryover) — reuses the neighbor's statistics
// instead of replaying. The memo is worker-local (no locking) and only
// ever holds replay results the worker itself computed, so warm and
// cold sweeps emit byte-identical rows.
type warmCache struct {
	m map[string]map[string]Stats // bench+"\x00"+warmKey -> scheme -> stats
}

// warmRef points one trace job at its sweep point's warm-start memo; a
// zero warmRef (the plain runner's) disables reuse.
type warmRef struct {
	cache *warmCache
	key   string // the point's non-carryover axis coordinates
}

// Warm-start reuse counters, on the process registry like the trace
// and frontend cache tiers' own.
var (
	warmHits   = obs.Default().Counter("sweep.warmstart.hits")
	warmMisses = obs.Default().Counter("sweep.warmstart.misses")
)

// Result is the outcome of simulating one benchmark under one scheme
// in one execution mode.
type Result struct {
	// Seq is the run's stable position in the experiment matrix
	// (benchmark-major, then mode, then scheme); SortResults restores
	// matrix order after streaming delivery.
	Seq         int
	Tag         string // experiment label from WithTag, "" if unset
	Bench       string
	Class       string
	Scheme      string
	Mode        Mode // the single mode bit that produced this result
	IfConverted bool
	Stats       Stats
	Mem         MemStats // zero in trace mode (no memory hierarchy)
	// Err is the per-run failure, if any; other runs keep streaming.
	Err error
}

// MemStats is a snapshot of the cache hierarchy's counters at the end
// of a run.
type MemStats struct {
	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64
}

func rate(miss, acc uint64) float64 {
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}

// L1IMissRate returns instruction-cache misses per access.
func (m MemStats) L1IMissRate() float64 { return rate(m.L1IMisses, m.L1IAccesses) }

// L1DMissRate returns data-cache misses per access.
func (m MemStats) L1DMissRate() float64 { return rate(m.L1DMisses, m.L1DAccesses) }

// L2MissRate returns unified-L2 misses per access.
func (m MemStats) L2MissRate() float64 { return rate(m.L2Misses, m.L2Accesses) }

// Progress reports one completed run to a WithProgress callback.
type Progress struct {
	Done   int // runs completed so far, including this one
	Total  int // runs in the experiment matrix
	Point  int // sweep point index of this run; -1 outside sweeps
	Bench  string
	Scheme string
	// Elapsed is the time since Start on the runner's clock (the
	// observer's clock when one is attached); ETA linearly extrapolates
	// the remaining runs from the completed ones, and is 0 on the last
	// run.
	Elapsed time.Duration
	ETA     time.Duration
	Err     error
}

// eta extrapolates time remaining from runs completed so far.
func eta(elapsed time.Duration, done, total int) time.Duration {
	if done <= 0 || done >= total {
		return 0
	}
	return elapsed / time.Duration(done) * time.Duration(total-done)
}

// Runner is a started experiment: a bounded worker pool streaming
// results over a channel as simulations complete.
type Runner struct {
	results chan Result
	done    chan struct{}
	total   int
	obsv    *Observer // nil when the experiment is unobserved
	startNS int64     // Start time on the observer's (or process) clock

	mu  sync.Mutex
	err error

	// progressMu serializes the WithProgress callback (and guards the
	// finished counter) without entangling user code with the state
	// mutex above.
	progressMu sync.Mutex
	finished   int
}

// Results returns the stream of completed runs. The channel closes
// once every run has finished or the context is cancelled; results
// arrive in completion order, not matrix order (see SortResults).
func (r *Runner) Results() <-chan Result { return r.results }

// Total returns the number of runs in the experiment matrix.
func (r *Runner) Total() int { return r.total }

// Wait blocks until the worker pool has shut down and returns the
// context's error if the run was cancelled. Per-run simulation
// failures are reported on each Result, not here.
func (r *Runner) Wait() error {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// simJob is one unit of worker-pool work: a benchmark × mode cell
// group. Pipeline-mode cells are one scheme per job; trace-mode jobs
// coalesce every scheme of the benchmark into a single job, replayed in
// one pass over the shared trace cursor (stats.Session.ReplayAll). The
// job's cells occupy consecutive matrix positions starting at seq, in
// scheme order.
type simJob struct {
	seq     int
	bench   string
	class   string
	schemes []string // one per cell; >1 only for coalesced trace-mode jobs
	mode    Mode
	prog    *Program
	pg      stats.Programs // prepared benchmark (trace recording needs spec + regions)
}

// buildJobs expands the experiment matrix into worker jobs in matrix
// order (benchmark-major, then mode, then scheme) and returns them with
// the total cell count — larger than len(jobs) whenever trace-mode
// scheme cells were coalesced.
func (e *Experiment) buildJobs(wl *Workload) ([]simJob, int) {
	var jobs []simJob
	seq := 0
	for _, pg := range wl.progs {
		p := pg.Plain
		if e.ifConverted {
			p = pg.Converted
		}
		for _, m := range e.mode.modes() {
			if m == ModeTrace {
				jobs = append(jobs, simJob{
					seq: seq, bench: pg.Spec.Name, class: pg.Spec.Class,
					schemes: e.schemes, mode: m, prog: p, pg: pg,
				})
				seq += len(e.schemes)
				continue
			}
			for _, s := range e.schemes {
				jobs = append(jobs, simJob{
					seq: seq, bench: pg.Spec.Name, class: pg.Spec.Class,
					schemes: []string{s}, mode: m, prog: p, pg: pg,
				})
				seq++
			}
		}
	}
	return jobs, seq
}

// Start validates nothing further (New did), prepares the workload if
// one was not supplied, and launches the worker pool under ctx.
// Cancelling ctx stops workers promptly: queued runs are abandoned and
// in-flight simulations stop at the next commit slice.
func (e *Experiment) Start(ctx context.Context) (*Runner, error) {
	wl := e.workload
	if wl == nil {
		t0 := e.observer.now()
		var err error
		wl, err = prepareSpecs(ctx, e.suiteSpecs, e.profileSteps)
		if err != nil {
			return nil, err
		}
		e.observer.span(PhasePrepare, e.observer.now()-t0)
	}
	var traces *traceProvider
	if e.mode&ModeTrace != 0 {
		traces = newTraceProvider(e.traceDir, e.frontendDir, wl.profileSteps, e.commits, e.observer)
	}
	jobs, total := e.buildJobs(wl)
	r := &Runner{
		results: make(chan Result, total),
		done:    make(chan struct{}),
		total:   total,
		obsv:    e.observer,
		startNS: e.observer.now(),
	}
	k := e.parallelism
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k > len(jobs) && len(jobs) > 0 {
		k = len(jobs)
	}
	jobc := make(chan simJob)
	go func() {
		defer close(jobc)
		for _, j := range jobs {
			select {
			case jobc <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker-local replay sessions: within one worker, every
			// trace-mode job of the same benchmark replays through one
			// reused engine (see stats.Session).
			sessions := make(map[string]*stats.Session)
			for j := range jobc {
				if ctx.Err() != nil {
					return
				}
				rs, ok := e.runJob(ctx, traces, sessions, j, noMeta)
				if !ok { // cancelled mid-run: partial stats, drop them
					return
				}
				for _, res := range rs {
					r.results <- res
					r.report(e.progress, res)
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		// Report cancellation only when it actually cost us runs: a
		// context cancelled after the last job finished is not an
		// error for this experiment.
		r.progressMu.Lock()
		done := r.finished
		r.progressMu.Unlock()
		if done < r.total {
			r.mu.Lock()
			r.err = ctx.Err()
			r.mu.Unlock()
		}
		close(r.results)
		close(r.done)
	}()
	return r, nil
}

// report serializes progress callbacks and the finished counter: the
// callback runs under progressMu, so invocations never overlap and
// Done values arrive monotonically.
func (r *Runner) report(f func(Progress), res Result) {
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.finished++
	if f != nil {
		elapsed := durationNS(r.obsv.now() - r.startNS)
		f(Progress{
			Done: r.finished, Total: r.total, Point: -1,
			Bench: res.Bench, Scheme: res.Scheme,
			Elapsed: elapsed, ETA: eta(elapsed, r.finished, r.total),
			Err: res.Err,
		})
	}
}

// result is cell i's Result prologue: identity fields filled in,
// statistics still empty.
func (j simJob) result(e *Experiment, i int) Result {
	return Result{
		Seq: j.seq + i, Tag: e.tag, Bench: j.bench, Class: j.class,
		Scheme: j.schemes[i], Mode: j.mode, IfConverted: e.ifConverted,
	}
}

func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// baseConfig builds one cell's configuration: the scheme's registry
// base with the experiment mutator applied.
func (e *Experiment) baseConfig(scheme string) (Config, error) {
	cfg, err := schemeConfig(scheme)
	if err != nil {
		return cfg, err
	}
	if e.mutate != nil {
		e.mutate(&cfg)
	}
	return cfg, nil
}

// cellManifest builds cell i's run manifest from its finished result:
// the identity half plus committed count and error; the caller fills
// in the timing half.
func (e *Experiment) cellManifest(j simJob, i int, meta manifestMeta, res Result) RunManifest {
	m := RunManifest{
		Seq:         j.seq + i,
		Point:       meta.point,
		Tag:         e.tag,
		Bench:       j.bench,
		Class:       j.class,
		Scheme:      j.schemes[i],
		Mode:        modeName(j.mode),
		IfConverted: e.ifConverted,
		SpecHash:    fmt.Sprintf("%016x", j.pg.Spec.Hash()),
		Seed:        meta.seed,
		Knobs:       meta.knobs,
		Committed:   res.Stats.Committed,
	}
	if res.Err != nil {
		m.Err = res.Err.Error()
	}
	return m
}

// instrsPerSec renders a throughput figure from a committed count and
// its attributed nanoseconds.
func instrsPerSec(committed uint64, ns int64) float64 {
	if ns <= 0 || committed == 0 {
		return 0
	}
	return round3(float64(committed) / (float64(ns) / 1e9))
}

// runJob simulates one matrix job (a pipeline cell, or a coalesced
// trace-mode cell group). ok is false when the context was cancelled
// mid-simulation and the partial results must be discarded.
func (e *Experiment) runJob(ctx context.Context, traces *traceProvider, sessions map[string]*stats.Session, j simJob, meta manifestMeta) ([]Result, bool) {
	if j.mode == ModeTrace {
		return e.runTraceJob(ctx, traces, sessions, j, e.baseConfig, meta, warmRef{})
	}
	cfg, err := e.baseConfig(j.schemes[0])
	if err != nil {
		res := j.result(e, 0)
		res.Err = err
		if o := e.observer; o != nil {
			o.emit(e.cellManifest(j, 0, meta, res))
			o.finishRun(err)
		}
		return []Result{res}, true
	}
	res, ok := e.runCell(ctx, cfg, j, 0, meta)
	return []Result{res}, ok
}

// runTraceJob replays every scheme cell of one benchmark in a single
// pass over the shared trace cursor. buildCfg produces each cell's
// fully-built configuration — the seam the sweep engine shares with the
// plain runner (a sweep point is the same group with extra axis
// mutations applied). A cell whose configuration fails to build or
// validate keeps its error while its siblings still replay; warm-start
// sweeps serve memoized cells from warm before replaying the rest. ok
// is false when the context was cancelled mid-replay and the whole
// group must be discarded.
func (e *Experiment) runTraceJob(ctx context.Context, traces *traceProvider, sessions map[string]*stats.Session, j simJob, buildCfg func(string) (Config, error), meta manifestMeta, warm warmRef) ([]Result, bool) {
	out := make([]Result, len(j.schemes))
	for i := range j.schemes {
		out[i] = j.result(e, i)
	}
	sess, err := traces.session(ctx, sessions, j.pg, e.ifConverted)
	if canceled(err) {
		return nil, false
	}
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		e.observeTraceGroup(traces, j, meta, out, nil, nil, nil)
		return out, true
	}
	var memo map[string]Stats
	memoKey := ""
	if warm.cache != nil {
		memoKey = j.bench + "\x00" + warm.key
		memo = warm.cache.m[memoKey]
	}
	var warmed []bool
	var cfgs []Config
	var live []int // out index per cfgs entry
	for i, s := range j.schemes {
		cfg, err := buildCfg(s)
		if err == nil {
			// Pre-flight so one invalid configuration keeps its per-cell
			// error instead of sinking the whole single-pass group. This
			// runs before any warm-start reuse: a carryover knob can still
			// make a configuration invalid, and such cells must keep their
			// error rather than inherit a neighbor's statistics.
			err = cfg.Validate()
		}
		if err != nil {
			out[i].Err = err
			continue
		}
		if st, ok := memo[s]; ok {
			out[i].Stats = st
			if warmed == nil {
				warmed = make([]bool, len(out))
			}
			warmed[i] = true
			warmHits.Inc()
			continue
		}
		if warm.cache != nil {
			warmMisses.Inc()
		}
		cfgs = append(cfgs, cfg)
		live = append(live, i)
	}
	var tm *stats.Timings
	if len(cfgs) > 0 {
		var sts []pipeline.Stats
		var err error
		if o := e.observer; o != nil {
			sts, tm, err = sess.ReplayAllTimed(ctx, cfgs, e.commits, o.clock)
		} else {
			sts, err = sess.ReplayAll(ctx, cfgs, e.commits)
		}
		if canceled(err) {
			return nil, false
		}
		for k, i := range live {
			if err != nil {
				out[i].Err = err
				continue
			}
			out[i].Stats = sts[k]
		}
		if warm.cache != nil && err == nil {
			if memo == nil {
				memo = make(map[string]Stats, len(live))
				warm.cache.m[memoKey] = memo
			}
			for k, i := range live {
				memo[j.schemes[i]] = sts[k]
			}
		}
	}
	e.observeTraceGroup(traces, j, meta, out, live, warmed, tm)
	return out, true
}

// observeTraceGroup records one coalesced trace job's telemetry: the
// group-level decode/frontend spans, a per-cell engine span, and one
// manifest per cell. The shared decode and frontend costs are
// attributed evenly across the live cells in each manifest (the group
// totals are recoverable via GroupSchemes), while engine time is
// exact per cell. Warm-started cells (warmed[i], nil = none) carry
// their provenance flag but no phase timings — no replay ran for them.
// No-op without an observer.
func (e *Experiment) observeTraceGroup(traces *traceProvider, j simJob, meta manifestMeta, out []Result, live []int, warmed []bool, tm *stats.Timings) {
	o := e.observer
	if o == nil {
		return
	}
	outcome, artOutcome, _, _ := traces.info(j.bench)
	var group []string
	if len(live) > 1 {
		group = make([]string, len(live))
		for k, i := range live {
			group[k] = j.schemes[i]
		}
	}
	var decodeShare, frontendShare int64
	if tm != nil && len(live) > 0 {
		o.span(PhaseDecode, tm.DecodeNS)
		o.span(PhaseFrontend, tm.FrontendNS)
		decodeShare = tm.DecodeNS / int64(len(live))
		frontendShare = tm.FrontendNS / int64(len(live))
	}
	liveIdx := make(map[int]int, len(live)) // out index -> cfgs position
	for k, i := range live {
		liveIdx[i] = k
	}
	for i := range out {
		m := e.cellManifest(j, i, meta, out[i])
		m.Cache = outcome
		m.FrontendCache = artOutcome
		m.WarmStart = warmed != nil && warmed[i]
		m.GroupSchemes = group
		if k, ok := liveIdx[i]; ok && tm != nil {
			engineNS := tm.EngineNS[k]
			o.span(PhaseEngine, engineNS)
			m.PhasesNS = map[string]int64{
				PhaseDecode:   decodeShare,
				PhaseFrontend: frontendShare,
				PhaseEngine:   engineNS,
			}
			m.InstrsPerSec = instrsPerSec(out[i].Stats.Committed, engineNS+decodeShare+frontendShare)
		}
		o.emit(m)
		o.finishRun(out[i].Err)
	}
}

// runCell simulates one pipeline-mode matrix cell under an explicit,
// fully-built configuration. ok is false when the context was cancelled
// mid-simulation.
func (e *Experiment) runCell(ctx context.Context, cfg Config, j simJob, i int, meta manifestMeta) (Result, bool) {
	res := j.result(e, i)
	o := e.observer
	var t0 int64
	if o != nil {
		t0 = o.now()
	}
	pl, err := stats.SimulateContext(ctx, cfg, j.prog, e.commits)
	// Drop the result only when the simulation itself was cut short: a
	// context cancelled after the run completed (err == nil, or a real
	// pipeline error) still produced a full, reportable result.
	if canceled(err) {
		return res, false
	}
	if pl != nil {
		res.Stats = pl.Stats
		res.Mem = captureMem(pl)
	}
	res.Err = err
	if o != nil {
		ns := o.now() - t0
		o.span(PhasePipeline, ns)
		m := e.cellManifest(j, i, meta, res)
		m.PhasesNS = map[string]int64{PhasePipeline: ns}
		m.InstrsPerSec = instrsPerSec(res.Stats.Committed, ns)
		o.emit(m)
		o.finishRun(res.Err)
	}
	return res, true
}

func captureMem(pl *pipeline.Pipeline) MemStats {
	h := pl.Hierarchy()
	return MemStats{
		L1IAccesses: h.L1I.Stats.Accesses, L1IMisses: h.L1I.Stats.Misses,
		L1DAccesses: h.L1D.Stats.Accesses, L1DMisses: h.L1D.Stats.Misses,
		L2Accesses: h.L2.Stats.Accesses, L2Misses: h.L2.Stats.Misses,
	}
}

// Run starts the experiment, drains the stream, and returns every
// result in matrix order. It fails on cancellation but not on per-run
// errors (inspect Result.Err, or let Tabulate surface them).
func (e *Experiment) Run(ctx context.Context) ([]Result, error) {
	r, err := e.Start(ctx)
	if err != nil {
		return nil, err
	}
	var out []Result
	//simlint:ignore ctxflow the runner's workers watch ctx and close Results on cancellation, so the drain terminates
	for res := range r.Results() {
		out = append(out, res)
	}
	if err := r.Wait(); err != nil {
		return out, err
	}
	SortResults(out)
	return out, nil
}

// SortResults restores matrix order (benchmark-major, scheme-minor)
// on a slice of streamed results.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })
}

// ProgramRun describes a single simulation of an arbitrary program —
// the predsim/examples path, as opposed to the Experiment matrix.
type ProgramRun struct {
	Program *Program
	Scheme  string        // registry scheme name
	Commits uint64        // committed-instruction budget (0 = run to halt)
	Mode    Mode          // ModePipeline (default 0 means pipeline) or ModeTrace
	Mutate  func(*Config) // optional configuration adjustment
	// TraceDir overrides the trace cache directory for ModeTrace.
	TraceDir string
	// FrontendDir, when non-empty, enables the second-level
	// frontend-artifact cache for ModeTrace (see WithFrontendCache):
	// the program's frontend pass is loaded from (or built and stored
	// into) that directory and replays are fed from the artifact's
	// note stream, bit-identically to the live frontend.
	FrontendDir string
	// Observer, when non-nil, collects phase spans and a run manifest
	// per result, exactly as WithObserver does for experiments.
	Observer *Observer
}

// programManifest is the ProgramRun counterpart of cellManifest.
func (r ProgramRun) manifest(seq int, scheme string, mode Mode, st Stats) RunManifest {
	return RunManifest{
		Seq:       seq,
		Point:     -1,
		Bench:     r.Program.Name,
		Scheme:    scheme,
		Mode:      modeName(mode),
		Committed: st.Committed,
	}
}

// ProgramResult is a single-program outcome, including the committed
// architectural integer register file for functional checks.
type ProgramResult struct {
	Result
	GPR [isa.NumGPR]int64
}

// SimulateProgram runs one program under one named scheme, honoring
// ctx cancellation mid-run. With Mode == ModeTrace the program is
// recorded by the functional emulator (through the disk cache) and
// replayed by the trace engine; the GPR snapshot and memory statistics
// stay zero in that mode.
func SimulateProgram(ctx context.Context, r ProgramRun) (ProgramResult, error) {
	var out ProgramResult
	if r.Program == nil {
		return out, fmt.Errorf("sim: nil program")
	}
	out.Bench = r.Program.Name
	out.Scheme = r.Scheme
	cfg, err := schemeConfig(r.Scheme)
	if err != nil {
		return out, err
	}
	if r.Mutate != nil {
		r.Mutate(&cfg)
	}
	if r.Mode == ModeTrace {
		out.Mode = ModeTrace
		o := r.Observer
		tr, outcome, err := recordProgramTrace(ctx, r)
		if err != nil {
			return out, err
		}
		sess := stats.NewSession(tr)
		artOutcome := attachProgramArtifact(ctx, r, tr, sess)
		if o != nil {
			sts, tm, err := sess.ReplayAllTimed(ctx, []Config{cfg}, r.Commits, o.clock)
			if len(sts) == 1 {
				out.Stats = sts[0]
			}
			o.span(PhaseDecode, tm.DecodeNS)
			o.span(PhaseFrontend, tm.FrontendNS)
			o.span(PhaseEngine, tm.EngineNS[0])
			m := r.manifest(0, r.Scheme, ModeTrace, out.Stats)
			m.Cache = outcome
			m.FrontendCache = artOutcome
			m.PhasesNS = map[string]int64{
				PhaseDecode:   tm.DecodeNS,
				PhaseFrontend: tm.FrontendNS,
				PhaseEngine:   tm.EngineNS[0],
			}
			m.InstrsPerSec = instrsPerSec(out.Stats.Committed, tm.EngineNS[0]+tm.DecodeNS+tm.FrontendNS)
			if err != nil {
				m.Err = err.Error()
			}
			o.emit(m)
			o.finishRun(err)
			return out, err
		}
		sts, err := sess.ReplayAll(ctx, []Config{cfg}, r.Commits)
		if len(sts) == 1 {
			out.Stats = sts[0]
		}
		return out, err
	}
	if r.Mode != 0 && r.Mode != ModePipeline {
		return out, fmt.Errorf("sim: program run wants a single mode, got %v", r.Mode)
	}
	out.Mode = ModePipeline
	o := r.Observer
	var t0 int64
	if o != nil {
		t0 = o.now()
	}
	pl, err := stats.SimulateContext(ctx, cfg, r.Program, r.Commits)
	if pl != nil {
		out.Stats = pl.Stats
		out.Mem = captureMem(pl)
		for i := 0; i < isa.NumGPR; i++ {
			out.GPR[i] = pl.ArchGPR(isa.Reg(i))
		}
	}
	if o != nil {
		ns := o.now() - t0
		o.span(PhasePipeline, ns)
		m := r.manifest(0, r.Scheme, ModePipeline, out.Stats)
		m.PhasesNS = map[string]int64{PhasePipeline: ns}
		m.InstrsPerSec = instrsPerSec(out.Stats.Committed, ns)
		if err != nil {
			m.Err = err.Error()
		}
		o.emit(m)
		o.finishRun(err)
	}
	if err != nil {
		return out, err
	}
	return out, nil
}

// SimulateProgramSchemes runs one program under several named schemes
// in a single trace-mode pass: the program's trace is recorded (or
// loaded from the disk cache) once and replayed through every scheme's
// predictor organization in lockstep over one shared cursor, so adding
// a scheme to the comparison costs its predictor work alone rather than
// another full decode. r.Mode must be ModeTrace (the pipeline cannot be
// fanned this way) and r.Scheme is ignored in favor of the schemes
// argument. Results are returned in scheme order, each bit-identical to
// a separate SimulateProgram call with that scheme.
func SimulateProgramSchemes(ctx context.Context, r ProgramRun, schemes ...string) ([]ProgramResult, error) {
	if r.Program == nil {
		return nil, fmt.Errorf("sim: nil program")
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("sim: no schemes given")
	}
	if r.Mode != ModeTrace {
		return nil, fmt.Errorf("sim: single-pass multi-scheme replay is trace-mode only, got %v", r.Mode)
	}
	tr, outcome, err := recordProgramTrace(ctx, r)
	if err != nil {
		return nil, err
	}
	sess := stats.NewSession(tr)
	artOutcome := attachProgramArtifact(ctx, r, tr, sess)
	cfgs := make([]Config, len(schemes))
	for i, s := range schemes {
		cfg, err := schemeConfig(s)
		if err != nil {
			return nil, err
		}
		if r.Mutate != nil {
			r.Mutate(&cfg)
		}
		cfgs[i] = cfg
	}
	o := r.Observer
	var sts []pipeline.Stats
	var tm *stats.Timings
	if o != nil {
		sts, tm, err = sess.ReplayAllTimed(ctx, cfgs, r.Commits, o.clock)
	} else {
		sts, err = sess.ReplayAll(ctx, cfgs, r.Commits)
	}
	if err != nil {
		return nil, err
	}
	out := make([]ProgramResult, len(schemes))
	var decodeShare, frontendShare int64
	if tm != nil {
		o.span(PhaseDecode, tm.DecodeNS)
		o.span(PhaseFrontend, tm.FrontendNS)
		decodeShare = tm.DecodeNS / int64(len(schemes))
		frontendShare = tm.FrontendNS / int64(len(schemes))
	}
	for i := range out {
		out[i].Bench = r.Program.Name
		out[i].Scheme = schemes[i]
		out[i].Mode = ModeTrace
		out[i].Stats = sts[i]
		if tm == nil {
			continue
		}
		m := r.manifest(i, schemes[i], ModeTrace, sts[i])
		m.Cache = outcome
		m.FrontendCache = artOutcome
		if len(schemes) > 1 {
			m.GroupSchemes = append([]string(nil), schemes...)
		}
		o.span(PhaseEngine, tm.EngineNS[i])
		m.PhasesNS = map[string]int64{
			PhaseDecode:   decodeShare,
			PhaseFrontend: frontendShare,
			PhaseEngine:   tm.EngineNS[i],
		}
		m.InstrsPerSec = instrsPerSec(sts[i].Committed, tm.EngineNS[i]+decodeShare+frontendShare)
		o.emit(m)
		o.finishRun(nil)
	}
	return out, nil
}

// attachProgramArtifact obtains (and attaches to sess) the program's
// frontend artifact for the run's commit budget when r.FrontendDir
// enables the tier: from the disk cache, or by one frontend-only pass
// stored back for the next process. The returned provenance is "hit",
// "build", or "" when the tier is off or the artifact could not be
// obtained — in which case the session replays the live frontend,
// bit-identically.
func attachProgramArtifact(ctx context.Context, r ProgramRun, tr *trace.Trace, sess *stats.Session) string {
	if r.FrontendDir == "" {
		return ""
	}
	key := stats.ArtifactKey(
		"program", r.Program.Name,
		fmt.Sprintf("prog=%016x", tr.ProgHash),
		fmt.Sprintf("commits=%d", r.Commits),
	)
	a, _ := stats.LoadArtifact(r.FrontendDir, key)
	if a != nil && a.ProgHash == tr.ProgHash && (a.Covers(r.Commits) || a.Steps >= tr.Steps) {
		if sess.SetArtifact(a) == nil {
			r.Observer.frontendOutcome("hit")
			return "hit"
		}
	}
	a, err := stats.BuildArtifact(ctx, tr, r.Commits)
	if err != nil || sess.SetArtifact(a) != nil {
		return ""
	}
	r.Observer.frontendOutcome("build")
	_ = stats.StoreArtifact(r.FrontendDir, key, a)
	return "build"
}

// recordProgramTrace records (or loads from the cache) the trace of an
// arbitrary program, keyed by the binary's content hash. The outcome
// names the trace's provenance ("hit" or "record") for manifests.
func recordProgramTrace(ctx context.Context, r ProgramRun) (*trace.Trace, string, error) {
	dir := r.TraceDir
	if dir == "" {
		dir = trace.DefaultDir()
	}
	o := r.Observer
	hash := trace.HashProgram(r.Program)
	key := trace.Key("program", r.Program.Name, fmt.Sprintf("prog=%016x", hash))
	t0 := o.now()
	t, _ := trace.Load(dir, key)
	o.span(PhaseCacheLookup, o.now()-t0)
	if t != nil && t.ProgHash == hash && t.Covers(r.Commits) {
		o.cacheOutcome("hit")
		return t, "hit", nil
	}
	t0 = o.now()
	t, err := trace.Record(ctx, r.Program, trace.Options{MaxSteps: r.Commits})
	if err != nil {
		return nil, "", err
	}
	o.span(PhaseRecord, o.now()-t0)
	o.cacheOutcome("record")
	_ = trace.Store(dir, key, t)
	return t, "record", nil
}
