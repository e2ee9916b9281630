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
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Result is the outcome of simulating one benchmark under one scheme
// at one point, in the experiment's execution mode.
type Result struct {
	// Point is the sweep point the run belongs to: the zero Point for
	// an experiment without axes.
	Point Point
	// Seq is the run's stable position in the experiment matrix
	// (benchmark-major, then scheme); SortResults restores point and
	// matrix order after streaming delivery.
	Seq         int
	Tag         string // experiment label from WithTag, "" if unset
	Bench       string
	Class       string
	Scheme      string
	Mode        Mode // the mode that produced this result
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
	Total  int // runs in the experiment: the matrix times the points
	Point  int // sweep point index of this run; -1 without axes
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

// Runner is a started experiment: the one bounded worker pool running
// every point's cell jobs, streaming one Result per cell as
// simulations complete.
type Runner struct {
	results chan Result
	done    chan struct{}
	total   int
	obsv    *Observer // nil when the experiment is unobserved
	startNS int64     // Start time on the observer's (or process) clock

	// mu guards err and finished and serializes deliveries and the
	// WithProgress callback, so invocations never overlap and Done
	// values arrive monotonically.
	mu       sync.Mutex
	err      error
	finished int
}

// Results returns the stream of completed runs. The channel closes
// once every run has finished or the context is cancelled; results
// arrive in completion order, not point and matrix order (see
// SortResults).
func (r *Runner) Results() <-chan Result { return r.results }

// Total returns the number of simulation cells: the experiment matrix
// times the number of points. It is the Total reported to WithProgress
// callbacks.
func (r *Runner) Total() int { return r.total }

// Wait blocks until the worker pool has shut down and returns the
// context's error if the run was cut short. Per-run simulation
// failures are reported on each Result, not here.
func (r *Runner) Wait() error {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// simJob is one unit of worker-pool work: one benchmark's cell group
// of one point's experiment matrix.
// Pipeline-mode cells are one scheme per job; trace-mode jobs coalesce
// every scheme of the benchmark into a single job, replayed in one
// pass over the shared trace (stats.ReplayAll). The job's cells occupy
// consecutive matrix positions starting at seq, in scheme order.
type simJob struct {
	seq      int
	bench    string
	class    string
	specHash string   // %016x of the benchmark spec's hash; "" for an arbitrary program
	schemes  []string // one per cell; >1 only for coalesced trace-mode jobs
	mode     Mode
	prog     *Program
	point    Point // the cells' configuration is the point's (cellConfig)
}

// buildJobs expands one point's experiment matrix into worker jobs in
// matrix order (benchmark-major, then scheme) and returns them with the
// matrix's cell count — larger than len(jobs) when trace-mode scheme
// cells were coalesced.
func (e *Experiment) buildJobs(wl *Workload, pt Point) ([]simJob, int) {
	var jobs []simJob
	seq := 0
	for _, pg := range wl.progs {
		p := pg.Plain
		if e.ifConverted {
			p = pg.Converted
		}
		specHash := fmt.Sprintf("%016x", pg.Spec.Hash())
		j := simJob{
			seq: seq, bench: pg.Spec.Name, class: pg.Spec.Class, specHash: specHash,
			mode: e.mode, prog: p, point: pt,
		}
		if e.mode == ModeTrace {
			j.schemes = e.schemes
			jobs = append(jobs, j)
			seq += len(e.schemes)
			continue
		}
		for _, s := range e.schemes {
			j.seq, j.schemes = seq, []string{s}
			jobs = append(jobs, j)
			seq++
		}
	}
	return jobs, seq
}

// prepare resolves what every job of a run shares: the workload
// (prepared here if WithWorkload did not supply one) and, in trace
// mode, the trace provider, which records each benchmark at most once
// for the whole run.
func (e *Experiment) prepare(ctx context.Context) (*Workload, *traceProvider, error) {
	wl := e.workload
	if wl == nil {
		t0 := e.observer.now()
		var err error
		wl, err = prepareSpecs(ctx, e.suiteSpecs, e.profileSteps)
		if err != nil {
			return nil, nil, err
		}
		e.observer.span(PhasePrepare, e.observer.now()-t0)
	}
	var traces *traceProvider
	if e.mode == ModeTrace {
		traces = newTraceProvider(e.traceDir, e.commits, e.observer)
	}
	return wl, traces, nil
}

// Start prepares the workload (once, shared by every point) if one was
// not supplied and launches the worker pool under ctx over every
// point's cell jobs, point-major. In trace mode one shared provider
// records each benchmark's trace exactly once for the whole run — an
// N-point sweep over the full suite records 22 traces, not 22×N.
// Cancelling ctx stops workers promptly: queued runs are abandoned and
// in-flight simulations stop at the next commit slice.
func (e *Experiment) Start(ctx context.Context) (*Runner, error) {
	wl, traces, err := e.prepare(ctx)
	if err != nil {
		return nil, err
	}
	var jobs []simJob
	total := 0
	for _, pt := range e.Points() {
		js, n := e.buildJobs(wl, pt)
		jobs = append(jobs, js...)
		total += n
	}
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
			for j := range jobc {
				if ctx.Err() != nil {
					return
				}
				rs, ok := e.runJob(ctx, traces, j)
				if !ok { // cancelled mid-run: partial stats, drop them
					return
				}
				r.finish(e.progress, j, rs)
			}
		}()
	}
	go func() {
		wg.Wait()
		// Report cancellation only when it actually cost us runs: a
		// context cancelled after the last job finished is not an
		// error for this run.
		r.mu.Lock()
		if r.finished < r.total {
			r.err = ctx.Err()
		}
		r.mu.Unlock()
		close(r.results)
		close(r.done)
	}()
	return r, nil
}

// finish delivers, counts and reports each of one finished job's
// cells.
func (r *Runner) finish(f func(Progress), j simJob, rs []Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range rs {
		r.results <- res
		r.finished++
		if f != nil {
			elapsed := durationNS(r.obsv.now() - r.startNS)
			f(Progress{
				Done: r.finished, Total: r.total, Point: j.point.id(),
				Bench: res.Bench, Scheme: res.Scheme,
				Elapsed: elapsed, ETA: eta(elapsed, r.finished, r.total),
				Err: res.Err,
			})
		}
	}
}

// result is cell i's Result prologue: identity fields filled in,
// statistics still empty.
func (j simJob) result(e *Experiment, i int) Result {
	return Result{
		Point: j.point, Seq: j.seq + i, Tag: e.tag, Bench: j.bench, Class: j.class,
		Scheme: j.schemes[i], Mode: j.mode, IfConverted: e.ifConverted,
	}
}

func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// baseConfig builds one cell's configuration: the scheme table entry's
// configuration with the experiment mutator applied.
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
func (e *Experiment) cellManifest(j simJob, i int, res Result) RunManifest {
	m := RunManifest{
		Seq:         j.seq + i,
		Point:       j.point.id(),
		Tag:         e.tag,
		Bench:       j.bench,
		Class:       j.class,
		Scheme:      j.schemes[i],
		Mode:        j.mode.String(),
		IfConverted: e.ifConverted,
		SpecHash:    j.specHash,
		Knobs:       j.point.knobs(),
		Committed:   res.Stats.Committed,
	}
	if e.sample > 0 {
		m.Seed = e.seed
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
func (e *Experiment) runJob(ctx context.Context, traces *traceProvider, j simJob) ([]Result, bool) {
	if j.mode == ModeTrace {
		return e.runTraceJob(ctx, traces, j)
	}
	res, _, ok := e.runCell(ctx, j)
	return []Result{res}, ok
}

// runTraceJob replays every scheme cell of one benchmark in a single
// pass over the shared trace. A cell whose configuration fails to
// build or validate keeps its error while its siblings still replay.
//
// Cells go through the provider's replay memo: the job claims every
// cell key no one holds yet and replays those in one pass, then waits
// for the keys other workers (or an earlier cell of this job) hold. A
// job never waits while it holds an unsettled claim, so workers cannot
// deadlock on each other. Validation has already rejected every
// configuration a replay could fail on, so a failed pass is a property
// of the trace (or a cancellation), and its waiters share its error.
// ok is false when the context was cancelled and the whole group must
// be discarded.
func (e *Experiment) runTraceJob(ctx context.Context, traces *traceProvider, j simJob) ([]Result, bool) {
	out := make([]Result, len(j.schemes))
	for i := range j.schemes {
		out[i] = j.result(e, i)
	}
	tr, err := traces.get(ctx, j.bench, j.prog)
	if canceled(err) {
		return nil, false
	}
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		e.observeTraceGroup(traces, j, out, nil, nil, nil)
		return out, true
	}
	var live, waits []int // cells this job replays, cells it waits for
	var cfgs []Config     // parallel to live
	entries := make([]*memoEntry, len(out))
	for i, s := range j.schemes {
		cfg, err := e.cellConfig(j.point, s)
		if err == nil {
			// Pre-flight so one invalid configuration keeps its per-cell
			// error instead of sinking the whole single-pass group, and
			// never reaches the memo.
			err = cfg.Validate()
		}
		if err != nil {
			out[i].Err = err
			continue
		}
		m, created := traces.claim(memoKey{bench: j.bench, cfg: stats.EngineConfigOf(cfg)})
		entries[i] = m
		if created {
			live = append(live, i)
			cfgs = append(cfgs, cfg)
		} else {
			waits = append(waits, i)
		}
	}
	var tm *stats.Timings
	if len(live) > 0 {
		var sts []pipeline.Stats
		var err error
		sts, tm, err = stats.ReplayAll(ctx, cfgs, tr, e.commits, e.observer.replayClock())
		for k, i := range live {
			if err == nil {
				out[i].Stats = sts[k]
			}
			out[i].Err = err
			traces.settle(entries[i], out[i].Stats, err)
		}
		if canceled(err) {
			return nil, false
		}
		memoMisses.Add(uint64(len(live)))
	}
	memo := make([]bool, len(out))
	for _, i := range waits {
		m := entries[i]
		select {
		case <-m.done:
		case <-ctx.Done():
			return nil, false
		}
		if canceled(m.err) {
			return nil, false
		}
		out[i].Stats, out[i].Err = m.st, m.err
		if m.err == nil {
			memo[i] = true
			memoHits.Inc()
		}
	}
	e.observeTraceGroup(traces, j, out, live, memo, tm)
	return out, true
}

// observeTraceGroup records one coalesced trace job's telemetry: the
// group-level decode/frontend spans, a per-cell engine span, and one
// manifest per cell. The shared decode and frontend costs are
// attributed evenly across the live cells in each manifest (the group
// totals are recoverable via GroupSchemes), while engine time is
// exact per cell. Memo-served cells (memo[i], nil = none) carry their
// provenance flag but no phase timings — no replay ran for them.
// No-op without an observer.
func (e *Experiment) observeTraceGroup(traces *traceProvider, j simJob, out []Result, live []int, memo []bool, tm *stats.Timings) {
	o := e.observer
	if o == nil {
		return
	}
	outcome := traces.outcome(j.bench)
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
		m := e.cellManifest(j, i, out[i])
		m.Cache = outcome
		m.Memo = memo != nil && memo[i]
		if k, ok := liveIdx[i]; ok && tm != nil {
			m.GroupSchemes = group
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

// runCell simulates one pipeline-mode matrix cell and hands back the
// finished pipeline (nil when the configuration failed to build). ok is
// false when the context was cancelled mid-simulation.
func (e *Experiment) runCell(ctx context.Context, j simJob) (Result, *pipeline.Pipeline, bool) {
	res := j.result(e, 0)
	o := e.observer
	cfg, err := e.cellConfig(j.point, j.schemes[0])
	if err != nil {
		res.Err = err
		if o != nil {
			o.emit(e.cellManifest(j, 0, res))
			o.finishRun(err)
		}
		return res, nil, true
	}
	var t0 int64
	if o != nil {
		t0 = o.now()
	}
	pl, err := stats.SimulateContext(ctx, cfg, j.prog, e.commits)
	// Drop the result only when the simulation itself was cut short: a
	// context cancelled after the run completed (err == nil, or a real
	// pipeline error) still produced a full, reportable result.
	if canceled(err) {
		return res, nil, false
	}
	if pl != nil {
		res.Stats = pl.Stats
		res.Mem = captureMem(pl)
	}
	res.Err = err
	if o != nil {
		ns := o.now() - t0
		o.span(PhasePipeline, ns)
		m := e.cellManifest(j, 0, res)
		m.PhasesNS = map[string]int64{PhasePipeline: ns}
		m.InstrsPerSec = instrsPerSec(res.Stats.Committed, ns)
		o.emit(m)
		o.finishRun(res.Err)
	}
	return res, pl, true
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
// result in point and matrix order. It fails on cancellation but not
// on per-run errors (inspect Result.Err, or let Tabulate surface
// them).
func (e *Experiment) Run(ctx context.Context) ([]Result, error) {
	r, err := e.Start(ctx)
	if err != nil {
		return nil, err
	}
	var out []Result
	for res := range r.Results() {
		out = append(out, res)
	}
	if err := r.Wait(); err != nil {
		return out, err
	}
	SortResults(out)
	return out, nil
}

// SortResults restores point order, then matrix order
// (benchmark-major, scheme-minor) within each point, on a slice of
// streamed results.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Point.Index != rs[j].Point.Index {
			return rs[i].Point.Index < rs[j].Point.Index
		}
		return rs[i].Seq < rs[j].Seq
	})
}

// ProgramRun describes a single simulation of an arbitrary program —
// the predsim/examples path, as opposed to the Experiment matrix.
type ProgramRun struct {
	Program *Program
	Scheme  string        // scheme table name
	Commits uint64        // committed-instruction budget (0 = run to halt)
	Mode    Mode          // ModePipeline (the zero value) or ModeTrace
	Mutate  func(*Config) // optional configuration adjustment
	// TraceDir overrides the trace cache directory for ModeTrace.
	TraceDir string
	// Observer, when non-nil, collects phase spans and a run manifest
	// per result, exactly as WithObserver does for experiments.
	Observer *Observer
}

// ProgramResult is a single-program outcome, including the committed
// architectural integer register file for functional checks.
type ProgramResult struct {
	Result
	GPR [isa.NumGPR]int64
}

// SimulateProgram runs one program under one named scheme, honoring
// ctx cancellation mid-run. It is a one-cell experiment: the same cell
// runner, trace cache and manifests as Experiment, so a suite binary
// gives the Stats of the matching Experiment cell and, in ModeTrace,
// shares its cached trace. In ModeTrace the program is recorded by the
// functional emulator (through the disk cache) and replayed by the
// trace engine, and the GPR snapshot and memory statistics stay zero.
func SimulateProgram(ctx context.Context, r ProgramRun) (ProgramResult, error) {
	var out ProgramResult
	if r.Program == nil {
		return out, fmt.Errorf("sim: nil program")
	}
	out.Bench, out.Scheme, out.Mode = r.Program.Name, r.Scheme, r.Mode
	e := &Experiment{commits: r.Commits, mutate: r.Mutate, observer: r.Observer}
	if err := WithMode(r.Mode)(e); err != nil {
		return out, err
	}
	j := simJob{
		bench: r.Program.Name, schemes: []string{r.Scheme}, mode: r.Mode,
		prog: r.Program,
	}
	if r.Mode == ModeTrace {
		rs, ok := e.runTraceJob(ctx, newTraceProvider(r.TraceDir, r.Commits, r.Observer), j)
		if !ok {
			return out, ctx.Err()
		}
		out.Result = rs[0]
		return out, out.Err
	}
	res, pl, ok := e.runCell(ctx, j)
	if !ok {
		return out, ctx.Err()
	}
	out.Result = res
	if pl != nil {
		for i := 0; i < isa.NumGPR; i++ {
			out.GPR[i] = pl.ArchGPR(isa.Reg(i))
		}
	}
	return out, out.Err
}
