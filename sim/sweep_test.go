package sim_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/sim"
)

func baseExperiment(t *testing.T, dir string, schemes ...string) *sim.Experiment {
	t.Helper()
	wl, err := sim.PrepareWorkload([]string{"gzip", "vpr"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes(schemes...),
		sim.WithCommits(60000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestSweepGridExpansion(t *testing.T) {
	exp := baseExperiment(t, t.TempDir(), "predpred")
	sw, err := sim.NewSweep(exp,
		sim.WithAxis("pvt.entries", 256, 1024, 4096),
		sim.WithAxis("conf.bits", 2, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.AxisNames(); !reflect.DeepEqual(got, []string{"pvt.entries", "conf.bits"}) {
		t.Fatalf("AxisNames = %v", got)
	}
	pts := sw.Points()
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

func TestSweepValidation(t *testing.T) {
	exp := baseExperiment(t, t.TempDir(), "predpred")
	cases := []struct {
		name string
		opts []sim.SweepOption
	}{
		{"no axes", nil},
		{"unknown knob", []sim.SweepOption{sim.WithAxis("nosuch.knob", 1)}},
		{"no values", []sim.SweepOption{sim.WithAxis("conf.bits")}},
		{"bad value", []sim.SweepOption{sim.WithAxis("conf.bits", "many")}},
		{"duplicate axis", []sim.SweepOption{sim.WithAxis("conf.bits", 2), sim.WithAxis("conf.bits", 3)}},
		{"nil mutator", []sim.SweepOption{sim.WithMutatorAxis("x", nil, 1)}},
		{"bad sample", []sim.SweepOption{sim.WithAxis("conf.bits", 2), sim.WithSample(0, 1)}},
	}
	for _, c := range cases {
		if _, err := sim.NewSweep(exp, c.opts...); err == nil {
			t.Errorf("%s: NewSweep should fail", c.name)
		}
	}
	if _, err := sim.NewSweep(nil, sim.WithAxis("conf.bits", 2)); err == nil {
		t.Error("nil base experiment should fail")
	}
}

// TestSweepAxisOrder pins the knob-order rule: pvt.entries sizes its
// byte budget from the history widths current when it applies, so a
// sweep declaring it before a history-width axis would label one
// configuration with another's numbers. NewSweep rejects that order
// and names the one to use.
func TestSweepAxisOrder(t *testing.T) {
	exp, err := sim.New(sim.WithSchemes("predpred"), sim.WithSuite("vpr"), sim.WithMode(sim.ModeTrace))
	if err != nil {
		t.Fatal(err)
	}
	for _, hist := range []string{"pred.ghrbits", "pred.lhrbits"} {
		_, err := sim.NewSweep(exp, sim.WithAxis("pvt.entries", 1024), sim.WithAxis("conf.bits", 2), sim.WithAxis(hist, 20))
		if err == nil || !strings.Contains(err.Error(), "declare "+hist+" before pvt.entries") {
			t.Errorf("pvt.entries before %s: NewSweep error = %v, want one naming the order to use", hist, err)
		}
		if _, err := sim.NewSweep(exp, sim.WithAxis(hist, 20), sim.WithAxis("pvt.entries", 1024)); err != nil {
			t.Errorf("%s before pvt.entries should be accepted: %v", hist, err)
		}
	}
}

// TestSweepLatinHypercube pins the subsample contract: deterministic
// under a seed, n points, and every axis stratified (each value
// appearing ⌊n/k⌋..⌈n/k⌉ times).
func TestSweepLatinHypercube(t *testing.T) {
	exp := baseExperiment(t, t.TempDir(), "predpred")
	mk := func() *sim.Sweep {
		sw, err := sim.NewSweep(exp,
			sim.WithAxis("pvt.entries", 256, 512, 1024, 2048),
			sim.WithAxis("conf.bits", 1, 2, 3),
			sim.WithSample(6, 42),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sw
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
	sw, err := sim.NewSweep(exp, sim.WithAxis("conf.bits", 2, 3), sim.WithSample(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sw.Points()); got != 2 {
		t.Errorf("oversized sample should fall back to the 2-point grid, got %d", got)
	}
}

// TestSweepRecordsTracesOnce is the record-once acceptance check: an
// N-point trace-mode sweep records each benchmark exactly once (the
// in-memory provider is shared across points), and a second sweep over
// the same cache directory records nothing — it is served entirely by
// the disk cache, observed through the cache-hit counter.
func TestSweepRecordsTracesOnce(t *testing.T) {
	dir := t.TempDir()
	exp := baseExperiment(t, dir, "conventional", "predpred")
	sweep := func() []sim.SweepResult {
		sw, err := sim.NewSweep(exp,
			sim.WithAxis("pvt.entries", 256, 1024, 4096),
			sim.WithAxis("conf.bits", 2, 3),
		)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sw.Run(context.Background())
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

	if len(rs) != 6 {
		t.Fatalf("want 6 sweep points, got %d", len(rs))
	}
	for i, sr := range rs {
		if sr.Point.Index != i {
			t.Fatalf("Run should deliver matrix order, point %d has index %d", i, sr.Point.Index)
		}
		if len(sr.Results) != 4 { // 2 benchmarks × 2 schemes
			t.Fatalf("point %d: want 4 runs, got %d", i, len(sr.Results))
		}
		for _, r := range sr.Results {
			if r.Err != nil {
				t.Fatalf("point %d %s/%s: %v", i, r.Bench, r.Scheme, r.Err)
			}
			if r.Stats.CondBranches == 0 || r.Stats.Committed < 59000 {
				t.Errorf("point %d %s/%s: implausible stats %+v", i, r.Bench, r.Scheme, r.Stats)
			}
		}
	}

	// The axis must actually reach the predictors: a 256-entry table
	// cannot match a 4096-entry table's misprediction count on both
	// schemes across both benchmarks.
	small, large := rs[0], rs[4] // conf.bits=2 at entries=256 vs 4096
	var diff bool
	for j := range small.Results {
		if small.Results[j].Stats.BranchMispred != large.Results[j].Stats.BranchMispred {
			diff = true
		}
	}
	if !diff {
		t.Error("sweeping pvt.entries 256→4096 changed no misprediction counts; axis not applied?")
	}

	// Second sweep, fresh provider, same disk cache: zero recordings,
	// one disk hit per benchmark.
	recs, hits = processCounter("trace.recordings"), processCounter("trace.cache.hits")
	sweep()
	if d := processCounter("trace.recordings") - recs; d != 0 {
		t.Errorf("second sweep must not re-record, recorded %d more times", d)
	}
	if d := processCounter("trace.cache.hits") - hits; d != 2 {
		t.Errorf("second sweep should load each benchmark's trace from disk once, got %d hits", d)
	}
}

func TestSweepAggregation(t *testing.T) {
	exp := baseExperiment(t, t.TempDir(), "conventional", "predpred")
	sw, err := sim.NewSweep(exp, sim.WithAxis("pvt.entries", 128, 4096))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	best, rate, err := sim.BestPoint(rs, "predpred")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := best.Point.Value("pvt.entries"); v != "4096" {
		t.Errorf("a 4096-entry table should beat 128 entries, best = %s (%.2f%%)", best.Point, rate)
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
// would block forever on a send no worker takes.
func TestSweepCancellation(t *testing.T) {
	wl, err := sim.PrepareWorkload([]string{"gzip", "vpr"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("predpred"),
		sim.WithCommits(60000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(t.TempDir()),
		sim.WithParallelism(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.NewSweep(exp, sim.WithAxis("conf.bits", 1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	if _, err := sw.Run(ctx); err == nil {
		t.Fatal("cancelled sweep should report the context error")
	}
	sim.WaitGoroutines(t, before)
}

// TestSweepCellsRunConcurrently pins that a sweep's cells, not its
// points, are the unit of parallel work: the two benchmarks of a
// one-point sweep must run on two workers at once. The axis's apply is
// a two-party rendezvous, so a pool that hands the whole point to one
// worker times out on the first cell.
func TestSweepCellsRunConcurrently(t *testing.T) {
	wl, err := sim.PrepareWorkload([]string{"gzip", "vpr"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("predpred"),
		sim.WithCommits(20000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(t.TempDir()),
		sim.WithParallelism(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool // NewSweep's dry run also calls apply; count only cell builds
	var arrived atomic.Int32
	both := make(chan struct{})
	rendezvous := func(*sim.Config, string) error {
		if !armed.Load() {
			return nil
		}
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("no second cell arrived: the point's cells ran one after another")
		}
	}
	sw, err := sim.NewSweep(exp, sim.WithMutatorAxis("rendezvous", rendezvous, 1))
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(rs[0].Results) != 2 {
		t.Fatalf("want one point of 2 cells, got %+v", rs)
	}
	for i, r := range rs[0].Results {
		if r.Seq != i {
			t.Errorf("cell %d has Seq %d; a point's cells must arrive in matrix order", i, r.Seq)
		}
		if r.Err != nil {
			t.Errorf("%s/%s: %v", r.Bench, r.Scheme, r.Err)
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
