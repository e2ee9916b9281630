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

// simJob is one unit of worker-pool work: cells of one benchmark. A
// pipeline-mode job is one cell. A trace-mode job is one benchmark at
// one owning point of the plan: it replays the point's configurations
// in a single pass over the shared trace (stats.ReplayAll) and delivers
// every cell planned onto them.
type simJob struct {
	bench    string
	class    string
	specHash string // %016x of the benchmark spec's hash; "" for an arbitrary program
	prog     *Program
	// matrix is the benchmark's first matrix position (benchmark-major,
	// then scheme): a cell's Seq is matrix plus its scheme position.
	matrix int
	cells  []cellPlan
	cfgs   []Config // trace mode: the configurations replayed, by cellPlan.key
	// experiment is the run's start order on its observer, from 0 (0
	// without one): the first key of the manifest order.
	experiment int
}

// cellPlan is one (point, scheme) cell of an experiment's plan, shared
// by every benchmark: Start builds its configuration once.
type cellPlan struct {
	point  Point
	scheme int    // position in the experiment's scheme list
	cfg    Config // cellConfig's configuration
	err    error  // cellConfig's error or, in trace mode, Validate's
	// Trace mode, valid cells only: the cell's replay among its owning
	// point's configurations (-1 otherwise), and whether an earlier
	// cell of the plan owns that replay, so this one is memo-served.
	key  int
	memo bool
}

// replays reports whether the cell's owning job replays it for the cell
// itself, rather than serving it from the memo or failing it unreplayed.
func (c cellPlan) replays() bool { return c.key >= 0 && !c.memo }

// pointPlan is the work one point owns: the cells its jobs deliver and,
// in trace mode, the distinct configurations they replay.
type pointPlan struct {
	cells []cellPlan
	cfgs  []Config
}

// plan builds every (point, scheme) configuration once and assigns each
// cell to the point whose jobs deliver it. In pipeline mode that is the
// cell's own point. In trace mode each distinct replay-visible
// configuration (stats.EngineConfig) belongs to the first point, in
// point order, that needs it: that point's jobs replay it once per
// benchmark and deliver every cell that shares it, later points'
// included. An invalid cell stays with its own point and never reaches
// a replay.
func (e *Experiment) plan(points []Point) []pointPlan {
	plans := make([]pointPlan, len(points))
	type owner struct{ point, key int }
	owners := map[stats.EngineConfig]owner{}
	for i, pt := range points {
		for s, scheme := range e.schemes {
			c := cellPlan{point: pt, scheme: s, key: -1}
			c.cfg, c.err = e.cellConfig(pt, scheme)
			at := i
			if e.mode == ModeTrace {
				if c.err == nil {
					c.err = c.cfg.Validate()
				}
				if c.err == nil {
					k := stats.EngineConfigOf(c.cfg)
					o, seen := owners[k]
					if !seen {
						o = owner{i, len(plans[i].cfgs)}
						owners[k] = o
						plans[i].cfgs = append(plans[i].cfgs, c.cfg)
					}
					at, c.key, c.memo = o.point, o.key, seen
				}
			}
			plans[at].cells = append(plans[at].cells, c)
		}
	}
	return plans
}

// buildJobs expands the plan into worker jobs: owning point-major, then
// benchmark, then (pipeline mode) scheme.
func (e *Experiment) buildJobs(wl *Workload, plans []pointPlan, experiment int) []simJob {
	var jobs []simJob
	for _, pp := range plans {
		if len(pp.cells) == 0 {
			continue // an earlier point's jobs serve every cell
		}
		for b, pg := range wl.progs {
			p := pg.Plain
			if e.ifConverted {
				p = pg.Converted
			}
			j := simJob{
				bench: pg.Spec.Name, class: pg.Spec.Class, specHash: fmt.Sprintf("%016x", pg.Spec.Hash()),
				prog: p, matrix: b * len(e.schemes), cells: pp.cells, cfgs: pp.cfgs, experiment: experiment,
			}
			if e.mode == ModeTrace {
				jobs = append(jobs, j)
				continue
			}
			for i := range pp.cells {
				j.cells = pp.cells[i : i+1]
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
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
// not supplied, plans every point's cells (plan) and launches the
// worker pool under ctx over the planned jobs, point-major. In trace
// mode one shared provider records each benchmark's trace exactly once
// for the whole run — an N-point sweep over the full suite records 22
// traces, not 22×N. Cancelling ctx stops workers promptly: queued runs
// are abandoned and in-flight simulations stop at the next commit
// slice.
func (e *Experiment) Start(ctx context.Context) (*Runner, error) {
	return e.start(ctx, e.runJob)
}

// start is Start with the function each worker runs a job through.
func (e *Experiment) start(ctx context.Context, run func(context.Context, *traceProvider, simJob) ([]Result, bool)) (*Runner, error) {
	wl, traces, err := e.prepare(ctx)
	if err != nil {
		return nil, err
	}
	points := e.Points()
	jobs := e.buildJobs(wl, e.plan(points), e.observer.startExperiment())
	total := len(points) * len(wl.progs) * len(e.schemes)
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
				rs, ok := run(ctx, traces, j)
				if !ok { // cancelled mid-run: partial stats, drop them
					return
				}
				r.finish(e.progress, rs)
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
func (r *Runner) finish(f func(Progress), rs []Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range rs {
		r.results <- res
		r.finished++
		if f != nil {
			elapsed := time.Duration(r.obsv.now() - r.startNS)
			f(Progress{
				Done: r.finished, Total: r.total, Point: res.Point.id(),
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
	c := j.cells[i]
	return Result{
		Point: c.point, Seq: j.matrix + c.scheme, Tag: e.tag, Bench: j.bench, Class: j.class,
		Scheme: e.schemes[c.scheme], Mode: e.mode, IfConverted: e.ifConverted,
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

// cellManifest builds a cell's run manifest from its finished result:
// the identity half plus committed count and error; the caller fills
// in the timing half.
func (e *Experiment) cellManifest(j simJob, res Result) RunManifest {
	m := RunManifest{
		Seq:         res.Seq,
		Point:       res.Point.id(),
		Experiment:  j.experiment,
		Tag:         res.Tag,
		Bench:       res.Bench,
		Class:       res.Class,
		Scheme:      res.Scheme,
		Mode:        res.Mode.String(),
		IfConverted: res.IfConverted,
		SpecHash:    j.specHash,
		Knobs:       res.Point.knobs(),
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

// runJob simulates one job (a pipeline cell, or a trace-mode replay
// pass with the cells it serves). ok is false when the context was
// cancelled mid-simulation and the partial results must be discarded.
func (e *Experiment) runJob(ctx context.Context, traces *traceProvider, j simJob) ([]Result, bool) {
	if e.mode == ModeTrace {
		return e.runTraceJob(ctx, traces, j)
	}
	res, _, ok := e.runCell(ctx, j)
	return []Result{res}, ok
}

// Replay memo counters, on the process registry beside the trace
// cache's: a hit is a cell served from another cell's replay, a miss
// a cell replayed.
var (
	memoHits   = obs.Default().Counter("replay.memo.hits")
	memoMisses = obs.Default().Counter("replay.memo.misses")
)

// runTraceJob replays the job's configurations in a single pass over
// its benchmark's trace and fills in every cell planned onto them; an
// invalid cell keeps its own error. Validation has already rejected
// every configuration a replay could fail on, so a failed pass is a
// property of the trace (or a cancellation), and every cell it serves
// shares its error. ok is false when the context was cancelled and the
// whole job must be discarded.
func (e *Experiment) runTraceJob(ctx context.Context, traces *traceProvider, j simJob) ([]Result, bool) {
	tr, traceErr := traces.get(ctx, j.bench, j.prog)
	if canceled(traceErr) {
		return nil, false
	}
	var sts []pipeline.Stats
	var tm *stats.Timings
	var replayErr error
	if traceErr == nil && len(j.cfgs) > 0 {
		sts, tm, replayErr = stats.ReplayAll(ctx, j.cfgs, tr, e.commits, e.observer.replayClock())
		if canceled(replayErr) {
			return nil, false
		}
		memoMisses.Add(uint64(len(j.cfgs)))
	}
	out := make([]Result, len(j.cells))
	for i, c := range j.cells {
		out[i] = j.result(e, i)
		switch {
		case traceErr != nil:
			out[i].Err = traceErr
		case c.err != nil:
			out[i].Err = c.err
		case replayErr != nil:
			out[i].Err = replayErr
		default:
			out[i].Stats = sts[c.key]
			if c.memo {
				memoHits.Inc()
			}
		}
	}
	e.observeTraceGroup(traces, j, out, tm)
	return out, true
}

// observeTraceGroup records one trace job's telemetry: the pass's
// decode/frontend spans, a per-cell engine span, and one manifest per
// cell. The shared decode and frontend costs are attributed evenly
// across the replayed cells in each manifest (the pass totals are
// recoverable via GroupSchemes), while engine time is exact per cell.
// Memo-served cells carry their provenance flag but no phase timings —
// no replay ran for them. No-op without an observer.
func (e *Experiment) observeTraceGroup(traces *traceProvider, j simJob, out []Result, tm *stats.Timings) {
	o := e.observer
	if o == nil {
		return
	}
	outcome := traces.outcome(j.bench)
	var group []string // the replayed cells' schemes, when there are several
	var decodeShare, frontendShare int64
	if tm != nil {
		o.span(PhaseDecode, tm.DecodeNS)
		o.span(PhaseFrontend, tm.FrontendNS)
		decodeShare = tm.DecodeNS / int64(len(j.cfgs))
		frontendShare = tm.FrontendNS / int64(len(j.cfgs))
		for _, c := range j.cells {
			if len(j.cfgs) > 1 && c.replays() {
				group = append(group, e.schemes[c.scheme])
			}
		}
	}
	for i, c := range j.cells {
		m := e.cellManifest(j, out[i])
		m.Cache = outcome
		m.Memo = c.memo && out[i].Err == nil
		if tm != nil && c.replays() {
			m.GroupSchemes = group
			engineNS := tm.EngineNS[c.key]
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

// runCell simulates one pipeline-mode job's cell and hands back the
// finished pipeline (nil when the configuration failed to build). ok is
// false when the context was cancelled mid-simulation.
func (e *Experiment) runCell(ctx context.Context, j simJob) (Result, *pipeline.Pipeline, bool) {
	res := j.result(e, 0)
	o := e.observer
	c := j.cells[0]
	if c.err != nil {
		res.Err = c.err
		if o != nil {
			o.emit(e.cellManifest(j, res))
			o.finishRun(c.err)
		}
		return res, nil, true
	}
	var t0 int64
	if o != nil {
		t0 = o.now()
	}
	pl, err := stats.SimulateContext(ctx, c.cfg, j.prog, e.commits)
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
		m := e.cellManifest(j, res)
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
	e := &Experiment{schemes: []string{r.Scheme}, commits: r.Commits, mutate: r.Mutate, observer: r.Observer}
	if err := WithMode(r.Mode)(e); err != nil {
		return out, err
	}
	pp := e.plan([]Point{{}})[0]
	j := simJob{
		bench: r.Program.Name, prog: r.Program, cells: pp.cells, cfgs: pp.cfgs,
		experiment: r.Observer.startExperiment(),
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
