package sim

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

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
// pipeline-mode job is one cell. A trace-mode job is one benchmark's
// chunk of the plan: it replays the chunk's configurations in a single
// pass over the benchmark's trace (stats.ReplayAll) and delivers every
// cell planned onto them, at whichever points they lie.
type simJob struct {
	bench    string
	class    string
	specHash string // the workload entry's: "" for a program
	prog     *Program
	outcomes *stats.Outcomes // trace mode: prog's stored conventional outcomes
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
	// Trace mode, valid cells only: the cell's replay among its chunk's
	// configurations (-1 otherwise), and whether an earlier cell of the
	// plan owns that replay, so this one is memo-served. runTraceJob
	// also sets memo, on its job's copy, for a cell whose configuration
	// the pass served with another configuration's engine.
	key  int
	memo bool
}

// replays reports whether the cell's job replays it for the cell
// itself, rather than serving it from the memo or failing it unreplayed.
func (c cellPlan) replays() bool { return c.key >= 0 && !c.memo }

// jobPlan is the work one job per benchmark does (one job per cell in
// pipeline mode): the cells it delivers and, in trace mode, the
// distinct configurations it replays.
type jobPlan struct {
	cells []cellPlan
	cfgs  []Config
}

// replayChunk is the most configurations one trace-mode job replays in
// its pass. One pass decodes the trace and runs the shared frontend
// once for all of them, so a larger chunk does less work in total; a
// smaller one leaves a sweep over few benchmarks more jobs to spread
// over the workers. EXPERIMENTS.md ("A sweep does only the work it
// reads") has the measurement behind the value.
const replayChunk = 8

// plan builds every (point, scheme) configuration once and groups the
// cells into the plans of the experiment's jobs. In pipeline mode each
// point is one plan, whose cells are simulated one job each. In trace
// mode the distinct replay-visible configurations (stats.EngineConfig)
// are numbered in first-use order, across every point, and cut into
// chunks of at most replayChunk: each chunk is one plan, whose jobs
// replay its configurations once per benchmark and deliver every cell
// that shares one of them, the first user's and later points' alike.
// An invalid cell never reaches a replay; it rides with the first
// chunk. The plan depends on the experiment alone, never on the worker
// count.
func (e *Experiment) plan(points []Point) []jobPlan {
	var plans []jobPlan
	at := func(i int) *jobPlan {
		for len(plans) <= i {
			plans = append(plans, jobPlan{})
		}
		return &plans[i]
	}
	keys := map[stats.EngineConfig]int{} // numbered in first-use order
	for i, pt := range points {
		for s, scheme := range e.schemes {
			c := cellPlan{point: pt, scheme: s, key: -1}
			c.cfg, c.err = e.cellConfig(pt, scheme)
			if e.mode != ModeTrace {
				at(i).cells = append(at(i).cells, c)
				continue
			}
			if c.err == nil {
				c.err = c.cfg.Validate()
			}
			if c.err != nil {
				at(0).cells = append(at(0).cells, c)
				continue
			}
			k := stats.EngineConfigOf(c.cfg)
			n, seen := keys[k]
			if !seen {
				n = len(keys)
				keys[k] = n
			}
			jp := at(n / replayChunk)
			if !seen {
				jp.cfgs = append(jp.cfgs, c.cfg)
			}
			c.key, c.memo = n%replayChunk, seen
			jp.cells = append(jp.cells, c)
		}
	}
	return plans
}

// buildJobs expands the plan into worker jobs: plan-major (point-major
// in pipeline mode, chunk-major in trace mode), then benchmark, then
// (pipeline mode) scheme.
func (e *Experiment) buildJobs(wl *Workload, plans []jobPlan, experiment int) []simJob {
	var jobs []simJob
	for _, jp := range plans {
		for b, pg := range wl.progs {
			p, out := pg.Plain, &pg.outcomes[0]
			if e.ifConverted {
				p, out = pg.Converted, &pg.outcomes[1]
			}
			j := simJob{
				bench: pg.Spec.Name, class: pg.Spec.Class, specHash: pg.specHash,
				prog: p, outcomes: out, matrix: b * len(e.schemes), cells: jp.cells, cfgs: jp.cfgs, experiment: experiment,
			}
			if e.mode == ModeTrace {
				jobs = append(jobs, j)
				continue
			}
			for i := range jp.cells {
				j.cells = jp.cells[i : i+1]
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// Start plans every point's cells (plan) over the experiment's
// workload and launches the worker pool under ctx over the planned
// jobs. An if-converted experiment first has the workload build the
// if-converted binaries no earlier experiment built, in parallel, and
// returns the first conversion error (or ctx's) before any job runs.
// In trace mode one shared provider records each benchmark's trace
// exactly once for the whole run — an N-point sweep over the full
// suite records 22 traces, not 22×N. Cancelling ctx stops workers
// promptly: queued runs are abandoned and in-flight simulations stop
// at the next commit slice. Each run's failure is reported on its
// Result.
func (e *Experiment) Start(ctx context.Context) (*Runner, error) {
	return e.start(ctx, e.runJob)
}

// worker is one pool goroutine's state: the run's trace provider and
// the cycle-model machine the worker resets for each of its pipeline
// cells, so that after its first cell a cell costs only its
// simulation.
type worker struct {
	traces *traceProvider
	pl     pipeline.Pipeline
}

// start is Start with the function each worker runs a job through.
func (e *Experiment) start(ctx context.Context, run func(context.Context, *worker, simJob) ([]Result, bool)) (*Runner, error) {
	wl := e.workload
	if e.ifConverted {
		if err := wl.convert(ctx); err != nil {
			return nil, err
		}
	}
	var traces *traceProvider
	if e.mode == ModeTrace {
		traces = newTraceProvider(e.traceDir, e.commits, e.observer)
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
			w := &worker{traces: traces}
			for j := range jobc {
				if ctx.Err() != nil {
					return
				}
				rs, ok := run(ctx, w, j)
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
func (e *Experiment) runJob(ctx context.Context, w *worker, j simJob) ([]Result, bool) {
	if e.mode == ModeTrace {
		return e.runTraceJob(ctx, w.traces, j)
	}
	res, ok := e.runCell(ctx, &w.pl, j)
	return []Result{res}, ok
}

// Replay memo counters, on the process registry beside the trace
// cache's: a hit is a cell served from another cell's replay, planned
// or merged inside a pass; a miss is an engine a pass ran. Beside them,
// the conventional predictors passes ran and those whose outcomes they
// read from the workload's store (stats.Outcomes).
var (
	memoHits   = obs.Default().Counter("replay.memo.hits")
	memoMisses = obs.Default().Counter("replay.memo.misses")
	convRuns   = obs.Default().Counter("replay.conv.runs")
	convReuses = obs.Default().Counter("replay.conv.reuses")
)

// runTraceJob replays the job's configurations in a single pass over
// its benchmark's trace and fills in every cell planned onto them; an
// invalid cell keeps its own error. A cell whose configuration the
// pass served with another configuration's engine (their tables alias
// this benchmark's sites alike) becomes memo-served like a planned one.
// Validation has already rejected every configuration a replay could
// fail on, so a failed pass is a property of the trace (or a
// cancellation), and every cell it serves shares its error. ok is false
// when the context was cancelled and the whole job must be discarded.
func (e *Experiment) runTraceJob(ctx context.Context, traces *traceProvider, j simJob) ([]Result, bool) {
	tr, traceErr := traces.get(ctx, j.bench, j.prog)
	if canceled(traceErr) {
		return nil, false
	}
	var pass stats.Pass
	var replayErr error
	if traceErr == nil && len(j.cfgs) > 0 {
		pass, replayErr = stats.ReplayAll(ctx, j.cfgs, j.prog, tr, e.commits, j.outcomes, e.observer.replayClock())
		if canceled(replayErr) {
			return nil, false
		}
		memoMisses.Add(uint64(pass.Engines()))
		convRuns.Add(uint64(pass.ConvRun))
		convReuses.Add(uint64(pass.ConvReused))
	}
	if replayErr == nil && pass.Engines() < len(pass.Engine) {
		j.cells = slices.Clone(j.cells)
		for i, c := range j.cells {
			if c.key >= 0 && pass.Engine[c.key] != c.key {
				j.cells[i].memo = true
			}
		}
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
			out[i].Stats = pass.Stats[c.key]
			if c.memo {
				memoHits.Inc()
			}
		}
	}
	e.observeTraceGroup(traces, j, out, pass.Timings)
	return out, true
}

// observeTraceGroup records one trace job's telemetry: the pass's
// decode/frontend spans, a per-cell engine span, and one manifest per
// cell. The shared decode and frontend costs are attributed evenly
// across the replayed cells, one per engine the pass ran, in each
// manifest (the pass totals are recoverable via GroupSchemes), while
// engine time is exact per cell. Memo-served cells carry their
// provenance flag but no phase timings — no engine ran for them. No-op
// without an observer.
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
		for _, c := range j.cells {
			if c.replays() {
				group = append(group, e.schemes[c.scheme])
			}
		}
		decodeShare = tm.DecodeNS / int64(len(group))
		frontendShare = tm.FrontendNS / int64(len(group))
		if len(group) == 1 {
			group = nil
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

// runCell simulates one pipeline-mode job's cell on the machine m. ok
// is false when the context was cancelled mid-simulation.
func (e *Experiment) runCell(ctx context.Context, m *pipeline.Pipeline, j simJob) (Result, bool) {
	res := j.result(e, 0)
	o := e.observer
	c := j.cells[0]
	if c.err != nil {
		res.Err = c.err
		if o != nil {
			o.emit(e.cellManifest(j, res))
			o.finishRun(c.err)
		}
		return res, true
	}
	var t0 int64
	if o != nil {
		t0 = o.now()
	}
	pl, err := stats.SimulateContext(ctx, m, c.cfg, j.prog, e.commits)
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
		m := e.cellManifest(j, res)
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
// result in point and matrix order. It fails on cancellation but not
// on per-run errors (inspect Result.Err, or let Tabulate surface
// them).
func (e *Experiment) Run(ctx context.Context) ([]Result, error) {
	r, err := e.start(ctx, e.runJob)
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
