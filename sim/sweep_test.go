package sim_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/sim"
)

// sweepOptions are the options of the tests' trace-mode gzip+vpr
// experiment over schemes, with opts (the axes) appended.
func sweepOptions(t *testing.T, dir string, schemes []string, opts ...sim.Option) []sim.Option {
	t.Helper()
	wl := sim.PrepareEntries(t, 50000, "gzip", "vpr")
	return append([]sim.Option{
		sim.WithWorkload(wl),
		sim.WithSchemes(schemes...),
		sim.WithCommits(60000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(dir),
	}, opts...)
}

// sweepExperiment builds the sweepOptions experiment.
func sweepExperiment(t *testing.T, dir string, schemes []string, axes ...sim.Option) *sim.Experiment {
	t.Helper()
	exp, err := sim.New(sweepOptions(t, dir, schemes, axes...)...)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestSweepGridExpansion(t *testing.T) {
	exp := sweepExperiment(t, t.TempDir(), []string{"predpred"},
		sim.WithAxis("pvt.entries", 256, 1024, 4096),
		sim.WithAxis("conf.bits", 2, 3),
	)
	if got := exp.AxisNames(); !reflect.DeepEqual(got, []string{"pvt.entries", "conf.bits"}) {
		t.Fatalf("AxisNames = %v", got)
	}
	pts := exp.Points()
	if len(pts) != 6 {
		t.Fatalf("3×2 grid should have 6 points, got %d", len(pts))
	}
	// Row-major: first axis slowest, indices dense and ordered.
	wantEntries := []string{"256", "256", "1024", "1024", "4096", "4096"}
	wantBits := []string{"2", "3", "2", "3", "2", "3"}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if e, _ := p.Value("pvt.entries"); e != wantEntries[i] {
			t.Errorf("point %d: pvt.entries = %s, want %s", i, e, wantEntries[i])
		}
		if b, _ := p.Value("conf.bits"); b != wantBits[i] {
			t.Errorf("point %d: conf.bits = %s, want %s", i, b, wantBits[i])
		}
	}
	if s := pts[1].String(); s != "pvt.entries=256 conf.bits=3" {
		t.Errorf("Point.String() = %q", s)
	}
}

// wideAxes returns three knob axes of 2000 values each (each value one
// the knob parses): a true grid of 8×10^9 points, far past the
// unsampled bound.
func wideAxes() []sim.Option {
	values := make([]any, 2000)
	for i := range values {
		values[i] = i + 1
	}
	return []sim.Option{
		sim.WithAxis("rob.entries", values...),
		sim.WithAxis("mispredict.penalty", values...),
		sim.WithAxis("ras.entries", values...),
	}
}

func TestSweepValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []sim.Option
	}{
		{"sample without axes", []sim.Option{sim.WithSample(2, 1)}},
		{"unknown knob", []sim.Option{sim.WithAxis("nosuch.knob", 1)}},
		{"no values", []sim.Option{sim.WithAxis("conf.bits")}},
		{"bad value", []sim.Option{sim.WithAxis("conf.bits", "many")}},
		{"duplicate axis", []sim.Option{sim.WithAxis("conf.bits", 2), sim.WithAxis("conf.bits", 3)}},
		{"bad sample", []sim.Option{sim.WithAxis("conf.bits", 2), sim.WithSample(0, 1)}},
		{"unsampled grid past the bound", wideAxes()},
		// A sample past the bound used to fall back to a truncated
		// prefix of the grid once the grid's size saturated.
		{"sample past the bound", append(wideAxes(), sim.WithSample(5_000_000, 1))},
	}
	for _, c := range cases {
		if _, err := sim.New(sweepOptions(t, t.TempDir(), []string{"predpred"}, c.opts...)...); err == nil {
			t.Errorf("%s: New should fail", c.name)
		}
	}
	var knobs []string
	for _, k := range sim.Knobs() {
		knobs = append(knobs, k.Name)
	}
	_, err := sim.New(sweepOptions(t, t.TempDir(), []string{"predpred"}, sim.WithAxis("pvt.entires", 512))...)
	requireLookupError(t, err, "pvt.entires", knobs)
}

// TestSweepAxisOrder pins the knob-order rule: pvt.entries sizes its
// byte budget from the history widths current when it applies, so a
// sweep declaring it before a history-width axis would label one
// configuration with another's numbers. New rejects that order
// and names the one to use.
func TestSweepAxisOrder(t *testing.T) {
	base := []sim.Option{sim.WithSchemes("predpred"), sim.WithWorkload(sim.PrepareEntries(t, 50000, "vpr")), sim.WithMode(sim.ModeTrace)}
	for _, hist := range []string{"pred.ghrbits", "pred.lhrbits"} {
		_, err := sim.New(append(base, sim.WithAxis("pvt.entries", 1024), sim.WithAxis("conf.bits", 2), sim.WithAxis(hist, 20))...)
		if err == nil || !strings.Contains(err.Error(), "declare "+hist+" before pvt.entries") {
			t.Errorf("pvt.entries before %s: New error = %v, want one naming the order to use", hist, err)
		}
		if _, err := sim.New(append(base, sim.WithAxis(hist, 20), sim.WithAxis("pvt.entries", 1024))...); err != nil {
			t.Errorf("%s before pvt.entries should be accepted: %v", hist, err)
		}
	}
}

// TestSweepLatinHypercube pins the subsample contract: deterministic
// under a seed, n points, and every axis stratified (each value
// appearing ⌊n/k⌋..⌈n/k⌉ times).
func TestSweepLatinHypercube(t *testing.T) {
	dir := t.TempDir()
	mk := func() *sim.Experiment {
		return sweepExperiment(t, dir, []string{"predpred"},
			sim.WithAxis("pvt.entries", 256, 512, 1024, 2048),
			sim.WithAxis("conf.bits", 1, 2, 3),
			sim.WithSample(6, 42),
		)
	}
	pts := mk().Points()
	if len(pts) != 6 {
		t.Fatalf("sample of 6 should yield 6 points, got %d", len(pts))
	}
	if !reflect.DeepEqual(pts, mk().Points()) {
		t.Error("same seed must reproduce the same sample")
	}
	for _, axis := range []struct {
		name string
		k    int
	}{{"pvt.entries", 4}, {"conf.bits", 3}} {
		counts := map[string]int{}
		for _, p := range pts {
			v, ok := p.Value(axis.name)
			if !ok {
				t.Fatalf("point missing axis %s", axis.name)
			}
			counts[v]++
		}
		lo, hi := 6/axis.k, (6+axis.k-1)/axis.k
		for v, n := range counts {
			if n < lo || n > hi {
				t.Errorf("axis %s value %s appears %d times, want %d..%d (stratified)", axis.name, v, n, lo, hi)
			}
		}
	}
	// A sample at least as large as the grid falls back to the full grid.
	exp := sweepExperiment(t, dir, []string{"predpred"}, sim.WithAxis("conf.bits", 2, 3), sim.WithSample(10, 1))
	if got := len(exp.Points()); got != 2 {
		t.Errorf("oversized sample should fall back to the 2-point grid, got %d", got)
	}
	// A grid past the bound is sampled, however far past it is.
	exp = sweepExperiment(t, dir, []string{"predpred"}, append(wideAxes(), sim.WithSample(4, 1))...)
	if got := len(exp.Points()); got != 4 {
		t.Errorf("a sample of 4 over a 2000^3 grid should yield 4 points, got %d", got)
	}
}

// TestSweepRecordsTracesOnce is the record-once acceptance check: an
// N-point trace-mode sweep records each benchmark exactly once (every
// point replays the trace its workload's binary holds), a second sweep
// on the same workload acquires nothing, and a sweep on a fresh
// workload over the same cache directory records nothing — it is
// served entirely by the disk cache, observed through the cache-hit
// counter.
func TestSweepRecordsTracesOnce(t *testing.T) {
	dir := t.TempDir()
	axes := []sim.Option{
		sim.WithAxis("pvt.entries", 256, 1024, 4096),
		sim.WithAxis("conf.bits", 2, 3),
	}
	exp := sweepExperiment(t, dir, []string{"conventional", "predpred"}, axes...)
	sweep := func() []sim.Result {
		rs, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	recs, hits := processCounter("trace.recordings"), processCounter("trace.cache.hits")
	rs := sweep()
	if d := processCounter("trace.recordings") - recs; d != 2 {
		t.Errorf("6-point sweep over 2 benchmarks should record exactly 2 traces, recorded %d", d)
	}
	if d := processCounter("trace.cache.hits") - hits; d != 0 {
		t.Errorf("first sweep into an empty cache dir should not hit, got %d hits", d)
	}

	if len(rs) != 6*4 { // 6 points × 2 benchmarks × 2 schemes
		t.Fatalf("want 24 cells, got %d", len(rs))
	}
	for i, r := range rs {
		if r.Point.Index != i/4 || r.Seq != i%4 {
			t.Fatalf("Run should deliver point and matrix order, cell %d is point %d seq %d", i, r.Point.Index, r.Seq)
		}
		if r.Err != nil {
			t.Fatalf("point %d %s/%s: %v", r.Point.Index, r.Bench, r.Scheme, r.Err)
		}
		if r.Stats.CondBranches == 0 || r.Stats.Committed < 59000 {
			t.Errorf("point %d %s/%s: implausible stats %+v", r.Point.Index, r.Bench, r.Scheme, r.Stats)
		}
	}

	// The axis must actually reach the predictors: a 256-entry table
	// cannot match a 4096-entry table's misprediction count on both
	// schemes across both benchmarks.
	small, large := rs[0:4], rs[16:20] // conf.bits=2 at entries=256 vs 4096
	var diff bool
	for j := range small {
		if small[j].Stats.BranchMispred != large[j].Stats.BranchMispred {
			diff = true
		}
	}
	if !diff {
		t.Error("sweeping pvt.entries 256→4096 changed no misprediction counts; axis not applied?")
	}

	// Second sweep, same workload: its binaries hold their traces, so
	// it neither records nor reads the disk cache.
	recs, hits = processCounter("trace.recordings"), processCounter("trace.cache.hits")
	sweep()
	if d := processCounter("trace.recordings") - recs; d != 0 {
		t.Errorf("second sweep must not re-record, recorded %d more times", d)
	}
	if d := processCounter("trace.cache.hits") - hits; d != 0 {
		t.Errorf("second sweep on the same workload should acquire nothing, got %d disk hits", d)
	}

	// A sweep on a fresh workload, same disk cache: zero recordings,
	// one disk hit per benchmark.
	exp = sweepExperiment(t, dir, []string{"conventional", "predpred"}, axes...)
	recs, hits = processCounter("trace.recordings"), processCounter("trace.cache.hits")
	sweep()
	if d := processCounter("trace.recordings") - recs; d != 0 {
		t.Errorf("a fresh workload's sweep must not re-record, recorded %d more times", d)
	}
	if d := processCounter("trace.cache.hits") - hits; d != 2 {
		t.Errorf("a fresh workload's sweep should load each benchmark's trace from disk once, got %d hits", d)
	}
}

func TestSweepAggregation(t *testing.T) {
	exp := sweepExperiment(t, t.TempDir(), []string{"conventional", "predpred"}, sim.WithAxis("pvt.entries", 128, 4096))
	rs, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	best, rate, err := sim.BestPoint(rs, "predpred")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := best.Value("pvt.entries"); v != "4096" {
		t.Errorf("a 4096-entry table should beat 128 entries, best = %s (%.2f%%)", best, rate)
	}
	rows, err := sim.MarginalTable(rs, "pvt.entries", []string{"conventional", "predpred"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Value != "128" || rows[1].Value != "4096" {
		t.Fatalf("marginal rows should follow declaration order: %+v", rows)
	}
	for _, r := range rows {
		if r.Points != 1 {
			t.Errorf("value %s should cover 1 point, got %d", r.Value, r.Points)
		}
		for _, s := range []string{"conventional", "predpred"} {
			if m, ok := r.Mean[s]; !ok || m <= 0 || m >= 100 {
				t.Errorf("marginal %s/%s implausible: %v %v", r.Value, s, m, ok)
			}
		}
	}
	if rows[0].Mean["predpred"] <= rows[1].Mean["predpred"] {
		t.Errorf("shrinking the PVT should hurt predpred: 128→%.2f%%, 4096→%.2f%%",
			rows[0].Mean["predpred"], rows[1].Mean["predpred"])
	}
	out := sim.RenderMarginals("pvt.entries", []string{"conventional", "predpred"}, rows)
	if !containsAll(out, "pvt.entries", "conventional", "predpred", "128", "4096") {
		t.Errorf("rendered marginals missing pieces:\n%s", out)
	}
	if _, _, err := sim.BestPoint(rs, "nosuch"); err == nil {
		t.Error("BestPoint should fail for an absent scheme")
	}
	if _, err := sim.MarginalTable(rs, "nosuch", []string{"predpred"}); err == nil {
		t.Error("MarginalTable should fail for an absent axis")
	}
}

// TestSweepCancellation: a sweep started under a cancelled context
// reports the context error and leaves no goroutine behind. Its 8 jobs
// outnumber its one worker, so a job feeder that ignored the context
// would block forever on a send no worker takes. Cancelled after its
// first delivered cell instead, a sweep streams only whole cells, each
// carrying a point of the sweep, and Wait reports the context error.
func TestSweepCancellation(t *testing.T) {
	wl := sim.PrepareEntries(t, 50000, "gzip", "vpr")
	dir := t.TempDir()
	newSweep := func() *sim.Experiment {
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithSchemes("predpred"),
			sim.WithCommits(60000),
			sim.WithMode(sim.ModeTrace),
			sim.WithTraceDir(dir),
			sim.WithParallelism(1),
			sim.WithAxis("conf.bits", 1, 2, 3, 4),
		)
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	if _, err := newSweep().Run(ctx); err == nil {
		t.Fatal("cancelled sweep should report the context error")
	}
	sim.WaitGoroutines(t, before)

	exp := newSweep()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	r, err := exp.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	points := exp.Points()
	streamed := 0
	for res := range r.Results() {
		if streamed == 0 {
			cancel()
		}
		streamed++
		p := res.Point
		if p.Index < 0 || p.Index >= len(points) || !reflect.DeepEqual(p, points[p.Index]) {
			t.Errorf("cell %s/%s carries point %+v, not one of the sweep's", res.Bench, res.Scheme, p)
		}
		if res.Err != nil || res.Stats.Committed == 0 {
			t.Errorf("point %d %s/%s: streamed an unfinished cell (err %v)", p.Index, res.Bench, res.Scheme, res.Err)
		}
	}
	if err := r.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if streamed == 0 || streamed >= r.Total() {
		t.Errorf("cancelled after the first cell, streamed %d of %d", streamed, r.Total())
	}
}

// TestPlainExperimentIsTheEmptyPoint pins the unification of sweeps
// and experiments: a one-point sweep whose single axis sets a knob to
// its Table 1 default simulates exactly the plain experiment, cell for
// cell, and its CSV rows are the plain rows behind the point and axis
// columns. The plain experiment's results carry the zero Point.
func TestPlainExperimentIsTheEmptyPoint(t *testing.T) {
	wl := sim.PrepareEntries(t, 50000, "gzip", "vpr")
	run := func(opts ...sim.Option) []sim.Result {
		exp, err := sim.New(append([]sim.Option{
			sim.WithWorkload(wl),
			sim.WithSchemes("conventional", "predpred"),
			sim.WithCommits(20000),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	def := sim.DefaultConfig().ROBEntries
	plain := run()
	swept := run(sim.WithAxis("rob.entries", def))
	if len(plain) != 4 || len(swept) != len(plain) {
		t.Fatalf("want 4 cells each, got %d plain and %d swept", len(plain), len(swept))
	}
	for i := range plain {
		p, s := plain[i], swept[i]
		if !reflect.DeepEqual(p.Point, sim.Point{}) {
			t.Errorf("plain cell %d carries point %+v, want the zero Point", i, p.Point)
		}
		if v, _ := s.Point.Value("rob.entries"); s.Point.Index != 0 || v != fmt.Sprint(def) {
			t.Errorf("swept cell %d carries point %+v", i, s.Point)
		}
		if p.Err != nil || s.Err != nil {
			t.Fatalf("cell %d: errors %v / %v", i, p.Err, s.Err)
		}
		if !reflect.DeepEqual(p.Stats, s.Stats) || p.Mem != s.Mem {
			t.Errorf("cell %d %s/%s: the default-valued point differs from the plain experiment", i, p.Bench, p.Scheme)
		}
	}
	var plainCSV, sweptCSV bytes.Buffer
	if err := sim.EmitAll(sim.NewCSVSink(&plainCSV), plain); err != nil {
		t.Fatal(err)
	}
	if err := sim.EmitAll(sim.NewCSVSink(&sweptCSV, "rob.entries"), swept); err != nil {
		t.Fatal(err)
	}
	plainRows := strings.Split(plainCSV.String(), "\n")
	sweptRows := strings.Split(sweptCSV.String(), "\n")
	if len(plainRows) != len(sweptRows) {
		t.Fatalf("%d plain lines, %d swept lines", len(plainRows), len(sweptRows))
	}
	for i := range plainRows {
		want := plainRows[i]
		if want == "" {
			continue
		}
		// Drop the point and axis:rob.entries columns.
		_, got, _ := strings.Cut(sweptRows[i], ",")
		_, got, _ = strings.Cut(got, ",")
		if got != want {
			t.Errorf("line %d: swept row without its point columns\n got %s\nwant %s", i, got, want)
		}
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestSweepPredictorGeometryPastBounds sweeps predictor-geometry knobs
// one value inside and one past their bounds. Past the bound a cell
// used to panic in a worker (pred.lhtbits=63 in trace mode) or exhaust
// memory (gshare.idxbits=40 in pipeline mode); now Validate fails that
// cell alone, and its sibling point still simulates.
func TestSweepPredictorGeometryPastBounds(t *testing.T) {
	wl := sim.PrepareEntries(t, 50000, "gzip")
	for _, tc := range []struct {
		mode      sim.Mode
		knob      string
		good, bad any
	}{
		{sim.ModeTrace, "pred.lhtbits", 12, 63},
		{sim.ModePipeline, "pred.lhtbits", 12, 63},
		{sim.ModePipeline, "gshare.idxbits", 14, 40},
		{sim.ModeTrace, "conf.bits", 3, 9},
	} {
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithSchemes("predpred"),
			sim.WithCommits(20000),
			sim.WithMode(tc.mode),
			sim.WithTraceDir(t.TempDir()),
			sim.WithAxis(tc.knob, tc.good, tc.bad),
		)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err != nil {
			t.Fatalf("%v %s: %v", tc.mode, tc.knob, err)
		}
		if len(rs) != 2 {
			t.Fatalf("%v %s: want 2 cells, got %d", tc.mode, tc.knob, len(rs))
		}
		for _, r := range rs {
			v, _ := r.Point.Value(tc.knob)
			switch v {
			case fmt.Sprint(tc.good):
				if r.Err != nil || r.Stats.Committed == 0 {
					t.Errorf("%v %s=%s: err %v, committed %d", tc.mode, tc.knob, v, r.Err, r.Stats.Committed)
				}
			case fmt.Sprint(tc.bad):
				if r.Err == nil || !strings.Contains(r.Err.Error(), "maximum") && !strings.Contains(r.Err.Error(), "outside") {
					t.Errorf("%v %s=%s: want a validation error, got %v", tc.mode, tc.knob, v, r.Err)
				}
			default:
				t.Errorf("%v: cell with unexpected point %+v", tc.mode, r.Point)
			}
		}
	}
}
