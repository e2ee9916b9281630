package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/sim"
)

// parallelism is the worker count of every experiment: the load comes
// from one process on a two-core host.
const parallelism = 2

// scale shrinks a workload for the in-process contract test; the zero
// scale is the full workload.
type scale struct {
	benches int    // keep the first n specs (0 = all)
	commits uint64 // cap the commit and profiling budgets (0 = none)
}

// report is what one invocation sends back to the parent.
type report struct {
	WallNS    int64  `json:"wall_ns"`  // from just before prepare to the last sink row
	SetupNS   int64  `json:"setup_ns"` // in sim.PrepareSpecs
	Committed uint64 `json:"committed"`
	Cells     []cell `json:"cells"`
	// Traced invocations only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// cell is one result row's identity and correctness fingerprint.
type cell struct {
	Key  string `json:"key"`
	Hash string `json:"hash"`
	Err  string `json:"err,omitempty"`
}

// span is one call the benchmark made into a layer, in nanoseconds
// since the invocation started. Parent indexes the enclosing span (-1
// for none).
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// result is one cell with the sweep point that produced it (-1 outside
// sweeps).
type result struct {
	point int
	sim.Result
}

func (r result) key() string {
	point := ""
	if r.point >= 0 {
		point = strconv.Itoa(r.point)
	}
	return cellKey(point, r.Tag, r.Bench, r.Scheme, r.Mode.String(), strconv.FormatBool(r.IfConverted))
}

// cellKey names a cell by its sink columns; sweep cells are prefixed by
// their point.
func cellKey(point string, cols ...string) string {
	k := strings.Join(cols, "/")
	if point != "" {
		k = "p" + point + "/" + k
	}
	return k
}

// invocation runs one workload once, in this process.
type invocation struct {
	ctx      context.Context
	w        *workload
	seed     int64
	scale    scale
	traceDir string
	traced   bool

	start   time.Time
	obsv    *sim.Observer // traced only
	spans   []span
	results []result
	csv     bytes.Buffer
}

func (inv *invocation) now() int64 { return int64(time.Since(inv.start)) }

// open starts a span; close it with end.
func (inv *invocation) open(name string, parent int) int {
	if !inv.traced {
		return -1
	}
	inv.spans = append(inv.spans, span{Name: name, Parent: parent, StartNS: inv.now()})
	return len(inv.spans) - 1
}

func (inv *invocation) end(i int) {
	if i >= 0 {
		inv.spans[i].EndNS = inv.now()
	}
}

func (inv *invocation) commits() uint64 {
	if c := inv.scale.commits; c > 0 && c < inv.w.commits {
		return c
	}
	return inv.w.commits
}

func (inv *invocation) profile() uint64 {
	if c := inv.scale.commits; c > 0 && c < profileSteps {
		return c
	}
	return profileSteps
}

// run executes the workload and fingerprints every cell.
func (inv *invocation) run() (*report, error) {
	specs, err := inv.w.specs(inv.seed)
	if err != nil {
		return nil, err
	}
	if n := inv.scale.benches; n > 0 && n < len(specs) {
		specs = specs[:n]
	}
	var ms0 runtime.MemStats
	var before sim.MetricsSnapshot
	if inv.traced {
		inv.obsv = sim.NewObserver()
		runtime.ReadMemStats(&ms0)
		before = sim.ProcessMetrics()
	}

	inv.start = time.Now()
	sp := inv.open("prepare", -1)
	wl, err := sim.PrepareSpecsContext(inv.ctx, specs, inv.profile())
	inv.end(sp)
	setup := inv.now()
	if err != nil {
		return nil, err
	}
	if len(inv.w.axes) > 0 {
		err = inv.sweep(wl)
	} else {
		err = inv.experiments(wl)
	}
	if err != nil {
		return nil, err
	}
	wall := inv.now()
	var ms1 runtime.MemStats
	var after sim.MetricsSnapshot
	if inv.traced {
		runtime.ReadMemStats(&ms1)
		after = sim.ProcessMetrics()
	}

	rep := &report{WallNS: wall, SetupNS: setup}
	if err := inv.fingerprint(rep); err != nil {
		return nil, err
	}
	if inv.traced {
		rep.Layers, err = inv.layers(wl, rep, before, after, ms0, ms1)
		if err != nil {
			return nil, err
		}
		rep.Spans = inv.spans
	}
	return rep, nil
}

func (inv *invocation) options(wl *sim.Workload, e experiment, o *sim.Observer) []sim.Option {
	opts := []sim.Option{
		sim.WithWorkload(wl),
		sim.WithTag(e.tag),
		sim.WithSchemes(e.schemes...),
		sim.WithIfConversion(e.ifconv),
		sim.WithCommits(inv.commits()),
		sim.WithConfigMutator(e.mutate),
		sim.WithMode(inv.w.mode),
		sim.WithParallelism(parallelism),
		sim.WithTraceDir(inv.traceDir),
	}
	if o != nil {
		opts = append(opts, sim.WithObserver(o))
	}
	return opts
}

// experiments runs every experiment in turn through one CSV sink, as
// cmd/experiments -format csv does.
func (inv *invocation) experiments(wl *sim.Workload) error {
	sink := sim.ObservedSink(inv.obsv, sim.NewCSVSink(&inv.csv))
	for _, e := range inv.w.exps {
		exp, err := sim.New(inv.options(wl, e, inv.obsv)...)
		if err != nil {
			return err
		}
		sp := inv.open("run:"+e.tag, -1)
		runner, err := exp.Start(inv.ctx)
		if err != nil {
			return err
		}
		for r := range runner.Results() {
			es := inv.open("emit", sp)
			err := sink.Emit(r)
			inv.end(es)
			if err != nil {
				return err
			}
			inv.results = append(inv.results, result{point: -1, Result: r})
		}
		if err := runner.Wait(); err != nil {
			return err
		}
		inv.end(sp)
	}
	return sink.Close()
}

// sweep runs the workload's one experiment over its axes through the
// sweep CSV sink, as cmd/sweep does.
func (inv *invocation) sweep(wl *sim.Workload) error {
	e := inv.w.exps[0]
	exp, err := sim.New(inv.options(wl, e, inv.obsv)...)
	if err != nil {
		return err
	}
	var opts []sim.SweepOption
	for _, ax := range inv.w.axes {
		opts = append(opts, sim.WithAxis(ax.knob, ax.values...))
	}
	sw, err := sim.NewSweep(exp, opts...)
	if err != nil {
		return err
	}
	sink := sim.ObservedSweepSink(inv.obsv, sim.NewSweepCSVSink(&inv.csv, sw.AxisNames()))
	sp := inv.open("run:"+e.tag, -1)
	runner, err := sw.Start(inv.ctx)
	if err != nil {
		return err
	}
	for sr := range runner.Results() {
		es := inv.open("emit", sp)
		err := sink.Emit(sr)
		inv.end(es)
		if err != nil {
			return err
		}
		for _, r := range sr.Results {
			inv.results = append(inv.results, result{point: sr.Point.Index, Result: r})
		}
	}
	if err := runner.Wait(); err != nil {
		return err
	}
	inv.end(sp)
	return sink.Close()
}

// fingerprint hashes every cell's full Stats and Mem together with the
// CSV row the sink wrote for it, in matrix order.
func (inv *invocation) fingerprint(rep *report) error {
	rows, err := csvRows(inv.csv.Bytes())
	if err != nil {
		return err
	}
	if len(rows) != len(inv.results) {
		return fmt.Errorf("sink wrote %d rows for %d cells", len(rows), len(inv.results))
	}
	// Matrix order: experiments in the order they ran, then sweep point,
	// then position in the experiment's matrix (as sim.SortResults).
	order := map[string]int{}
	for i, e := range inv.w.exps {
		order[e.tag] = i
	}
	sort.SliceStable(inv.results, func(i, j int) bool {
		a, b := inv.results[i], inv.results[j]
		if order[a.Tag] != order[b.Tag] {
			return order[a.Tag] < order[b.Tag]
		}
		if a.point != b.point {
			return a.point < b.point
		}
		return a.Seq < b.Seq
	})
	for _, r := range inv.results {
		k := r.key()
		row, ok := rows[k]
		if !ok {
			return fmt.Errorf("sink wrote no row for cell %s", k)
		}
		h := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v\n%s", r.Stats, r.Mem, row)))
		c := cell{Key: k, Hash: hex.EncodeToString(h[:8])}
		if r.Err != nil {
			c.Err = r.Err.Error()
		}
		rep.Cells = append(rep.Cells, c)
		rep.Committed += r.Stats.Committed
	}
	return nil
}

// csvRows parses a sink's output back into rows keyed like result.key.
func csvRows(data []byte) (map[string]string, error) {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("parse sink output: %w", err)
	}
	rows := map[string]string{}
	if len(recs) == 0 {
		return rows, nil
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	for _, rec := range recs[1:] {
		point := ""
		if i, ok := col["point"]; ok {
			point = rec[i]
		}
		var cols []string
		for _, name := range []string{"tag", "bench", "scheme", "mode", "if_converted"} {
			i, ok := col[name]
			if !ok {
				return nil, fmt.Errorf("sink output has no %q column", name)
			}
			cols = append(cols, rec[i])
		}
		rows[cellKey(point, cols...)] = strings.Join(rec, ",")
	}
	return rows, nil
}

// probeTraceStore times trace.Load and trace.Store directly on every
// trace the workload left in its cache. It returns load and store ns per
// byte and bytes per recorded instruction, all 0 without traces.
func probeTraceStore(dir string) (loadNS, storeNS, bytesPerInstr float64, err error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, 0, 0, nil
	}
	if err != nil {
		return 0, 0, 0, err
	}
	scratch := dir + "-probe"
	defer os.RemoveAll(scratch)
	var total int64
	var steps uint64
	var tLoad, tStore time.Duration
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), ".pptrace")
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		tr, err := trace.Load(dir, key)
		tLoad += time.Since(t0)
		if err != nil || tr == nil {
			return 0, 0, 0, fmt.Errorf("reload trace %s: %v", key, err)
		}
		t0 = time.Now()
		err = trace.Store(scratch, key, tr)
		tStore += time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		total += info.Size()
		steps += tr.Steps
	}
	if total == 0 {
		return 0, 0, 0, nil
	}
	b := float64(total)
	return float64(tLoad) / b, float64(tStore) / b, b / float64(steps), nil
}

// layers derives the per-layer metrics of a traced invocation from the
// observer's manifests and spans, the process registry, the Go runtime
// and direct probes of the trace store.
func (inv *invocation) layers(wl *sim.Workload, rep *report, before, after sim.MetricsSnapshot, ms0, ms1 runtime.MemStats) (map[string]float64, error) {
	L := map[string]float64{}
	for _, d := range perLayer {
		L[d.Name] = 0
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	instrs := float64(rep.Committed)
	L["sim.cells"] = float64(len(rep.Cells))
	L["bench.prepare_ms"] = float64(rep.SetupNS) / 1e6

	snap := inv.obsv.Metrics()
	hist := func(name string) (count, sum float64) {
		h, _ := snap.HistogramValue(name)
		return float64(h.Count), float64(h.Sum)
	}
	passes, _ := hist("span.decode.ns")
	L["sim.replay_passes"] = passes
	_, sinkNS := hist("span.sink.ns")
	L["sim.sink_us_per_row"] = ratio(sinkNS/1e3, float64(len(rep.Cells)))

	counter := func(name string) float64 {
		return float64(after.CounterValue(name) - before.CounterValue(name))
	}
	recordings := counter("trace.recordings")
	L["trace.recordings"] = recordings
	L["trace.cache_hits"] = counter("trace.cache.hits")
	_, recordNS := hist("span.trace-record.ns")
	// Recordings stop at the commit budget: no workload program halts.
	L["trace.record_ns_per_instr"] = ratio(recordNS, recordings*float64(inv.commits()))

	var busy, decode, frontend, passInstrs float64
	engNS, engInstr := map[string]float64{}, map[string]float64{}
	pipeNS, pipeInstr := map[string]float64{}, map[string]float64{}
	for _, m := range inv.obsv.Manifests() {
		for _, ns := range m.PhasesNS {
			busy += float64(ns)
		}
		switch m.Mode {
		case "trace":
			decode += float64(m.PhasesNS[sim.PhaseDecode])
			frontend += float64(m.PhasesNS[sim.PhaseFrontend])
			engNS[m.Scheme] += float64(m.PhasesNS[sim.PhaseEngine])
			engInstr[m.Scheme] += float64(m.Committed)
			// Decode and frontend run once per pass and are shared evenly
			// by the pass's cells.
			passInstrs += float64(m.Committed) / float64(max(1, len(m.GroupSchemes)))
		case "pipeline":
			pipeNS[m.Scheme] += float64(m.PhasesNS[sim.PhasePipeline])
			pipeInstr[m.Scheme] += float64(m.Committed)
		}
	}
	L["sim.worker_busy_frac"] = ratio(busy, parallelism*float64(rep.WallNS-rep.SetupNS))
	L["trace.decode_ns_per_instr"] = ratio(decode, passInstrs)
	L["stats.frontend_ns_per_instr"] = ratio(frontend, passInstrs)
	var allPipeNS float64
	for _, s := range three {
		L["stats.engine."+s+"_ns_per_instr"] = ratio(engNS[s], engInstr[s])
		L["pipeline."+s+"_ns_per_instr"] = ratio(pipeNS[s], pipeInstr[s])
		allPipeNS += pipeNS[s]
	}

	var st sim.Stats
	var mem sim.MemStats
	seen := map[string]bool{}
	var traceCells, dups float64
	for _, r := range inv.results {
		if r.Mode == sim.ModeTrace {
			traceCells++
			k := fmt.Sprintf("%s/%v/%s/%+v", r.Bench, r.IfConverted, r.Scheme, r.Stats)
			if seen[k] {
				dups++
			}
			seen[k] = true
			continue
		}
		st.Cycles += r.Stats.Cycles
		st.Committed += r.Stats.Committed
		st.Fetched += r.Stats.Fetched
		st.OverrideFlushes += r.Stats.OverrideFlushes
		st.ExecFlushes += r.Stats.ExecFlushes
		st.PredFlushes += r.Stats.PredFlushes
		mem.L1DAccesses += r.Mem.L1DAccesses
		mem.L1DMisses += r.Mem.L1DMisses
		mem.L2Accesses += r.Mem.L2Accesses
		mem.L2Misses += r.Mem.L2Misses
	}
	L["sim.dup_cell_frac"] = ratio(dups, traceCells)
	L["pipeline.ns_per_cycle"] = ratio(allPipeNS, float64(st.Cycles))
	L["pipeline.ipc"] = ratio(float64(st.Committed), float64(st.Cycles))
	L["pipeline.fetched_per_committed"] = ratio(float64(st.Fetched), float64(st.Committed))
	L["pipeline.flushes_per_kinstr"] = ratio(1000*float64(st.OverrideFlushes+st.ExecFlushes+st.PredFlushes), float64(st.Committed))
	L["cache.l1d_miss_pct"] = 100 * mem.L1DMissRate()
	L["cache.l2_miss_pct"] = 100 * mem.L2MissRate()

	L["go.alloc_bytes_per_instr"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), instrs)
	L["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)

	var err error
	L["trace.load_ns_per_byte"], L["trace.store_ns_per_byte"], L["trace.bytes_per_instr"], err = probeTraceStore(inv.traceDir)
	if err != nil {
		return nil, err
	}
	if inv.w.mode == sim.ModePipeline {
		if L["trace_err_pp"], err = inv.traceError(wl); err != nil {
			return nil, err
		}
	}
	return L, nil
}

// traceError replays the pipeline workload's cells in trace mode and
// returns the mean |trace − pipeline| misprediction rate in percentage
// points. The cycle model is the reference.
func (inv *invocation) traceError(wl *sim.Workload) (float64, error) {
	id := func(r sim.Result) string {
		return fmt.Sprintf("%s/%s/%s/%v", r.Tag, r.Bench, r.Scheme, r.IfConverted)
	}
	pipe := map[string]float64{}
	for _, r := range inv.results {
		pipe[id(r.Result)] = r.Stats.MispredictRate()
	}
	var sum float64
	var n int
	for _, e := range inv.w.exps {
		exp, err := sim.New(append(inv.options(wl, e, nil), sim.WithMode(sim.ModeTrace))...)
		if err != nil {
			return 0, err
		}
		rs, err := exp.Run(inv.ctx)
		if err != nil {
			return 0, err
		}
		for _, r := range rs {
			if r.Err != nil {
				return 0, r.Err
			}
			p, ok := pipe[id(r)]
			if !ok {
				return 0, fmt.Errorf("no pipeline cell for %s", id(r))
			}
			sum += math.Abs(100 * (r.Stats.MispredictRate() - p))
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// childMain runs one invocation and writes its report to w: the -child
// side of the process boundary.
func childMain(ctx context.Context, w io.Writer, wname string, seed int64, traceDir string, traced bool) error {
	wk, err := findWorkload(wname)
	if err != nil {
		return err
	}
	if traceDir == "" {
		return fmt.Errorf("-child needs -tracedir")
	}
	inv := &invocation{ctx: ctx, w: wk, seed: seed, traceDir: traceDir, traced: traced}
	rep, err := inv.run()
	if err != nil {
		return err
	}
	return writeJSON(w, rep)
}
