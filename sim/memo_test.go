package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// memoCommits is the memo tests' commit and profiling budget.
const memoCommits = 50000

// memoRun is one finished memo-test sweep.
type memoRun struct {
	exp          *Experiment
	rs           []Result
	hits, misses uint64 // replay.memo.* counter deltas
	manifests    []RunManifest
}

// runMemoSweep runs a trace-mode sweep over wl at a worker count,
// observed on a constant clock (so phase timings carry no scheduling
// noise), and returns its sorted results with the process memo counter
// deltas.
func runMemoSweep(t *testing.T, wl *Workload, dir string, par int, schemes []string, axes ...Option) memoRun {
	t.Helper()
	o := NewObserverWithClock(func() int64 { return 0 })
	exp, err := New(append([]Option{
		WithWorkload(wl),
		WithSchemes(schemes...),
		WithCommits(memoCommits),
		WithMode(ModeTrace),
		WithTraceDir(dir),
		WithParallelism(par),
		WithObserver(o),
	}, axes...)...)
	if err != nil {
		t.Fatal(err)
	}
	before := ProcessMetrics()
	rs, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after := ProcessMetrics()
	return memoRun{
		exp:       exp,
		rs:        rs,
		hits:      after.CounterValue("replay.memo.hits") - before.CounterValue("replay.memo.hits"),
		misses:    after.CounterValue("replay.memo.misses") - before.CounterValue("replay.memo.misses"),
		manifests: o.Manifests(),
	}
}

// memoTraces loads (recording into dir on first use) the trace every
// memo-test sweep over wl replays, by benchmark.
func memoTraces(t *testing.T, wl *Workload, dir string) map[string]*trace.Trace {
	t.Helper()
	p := newTraceProvider(dir, memoCommits, nil)
	traces := map[string]*trace.Trace{}
	for _, pg := range wl.progs {
		tr, err := p.get(context.Background(), pg.Spec.Name, pg.Plain)
		if err != nil {
			t.Fatal(err)
		}
		traces[pg.Spec.Name] = tr
	}
	return traces
}

// checkAgainstReplay compares every cell of a sweep with a direct
// stats.Replay of the cell's configuration over the same trace — the
// memo-free reference.
func checkAgainstReplay(t *testing.T, wl *Workload, dir string, run memoRun) {
	t.Helper()
	traces := memoTraces(t, wl, dir)
	for _, r := range run.rs {
		cfg, err := run.exp.cellConfig(r.Point, r.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stats.Replay(cfg, traces[r.Bench], memoCommits)
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != nil {
			t.Fatalf("point %d %s/%s: %v", r.Point.Index, r.Bench, r.Scheme, r.Err)
		}
		if !reflect.DeepEqual(r.Stats, want) {
			t.Errorf("point %d %s/%s: memo sweep stats differ from a direct replay:\n got: %+v\nwant: %+v",
				r.Point.Index, r.Bench, r.Scheme, r.Stats, want)
		}
	}
}

// memoGrid is the canonical memo sweep: two benchmarks × two schemes
// over pred.bytes (replay-visible) × mispredict.penalty (timing-only) —
// 32 cells over 8 distinct replays.
func memoGrid(t *testing.T, wl *Workload, dir string, par int) memoRun {
	return runMemoSweep(t, wl, dir, par, []string{"conventional", "predpred"},
		WithAxis("pred.bytes", 75776, 151552),
		WithAxis("mispredict.penalty", 5, 10, 15, 20),
	)
}

func memoWorkload(t *testing.T, names ...string) *Workload {
	t.Helper()
	wl, err := PrepareWorkload(names, memoCommits)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestMemoSweepExactCounts pins the replay memo's reuse: whatever the
// worker count, the canonical grid replays each of its 8 distinct
// (benchmark, replay-visible config) keys exactly once and serves the
// other 24 cells from the memo, every cell matches a direct replay,
// and the sweep's CSV rows are byte-identical across worker counts.
func TestMemoSweepExactCounts(t *testing.T) {
	wl := memoWorkload(t, "gzip", "vpr")
	dir := t.TempDir()
	var csvs [][]byte
	for _, par := range []int{1, 4} {
		run := memoGrid(t, wl, dir, par)
		if run.hits != 24 || run.misses != 8 {
			t.Errorf("p=%d: want 24 memo hits / 8 replayed cells, got %d / %d", par, run.hits, run.misses)
		}
		if len(run.rs) != 32 {
			t.Fatalf("p=%d: want 8 points of 4 cells, got %d cells", par, len(run.rs))
		}
		checkAgainstReplay(t, wl, dir, run)
		// The timing-only axis leaves replay stats alone; the
		// replay-visible one does not.
		point := func(i int) []Stats {
			var sts []Stats
			for _, r := range run.rs[4*i : 4*i+4] {
				sts = append(sts, r.Stats)
			}
			return sts
		}
		for i := 1; i < 4; i++ {
			if !reflect.DeepEqual(point(0), point(i)) {
				t.Errorf("p=%d: points 0 and %d differ only in mispredict.penalty but have different stats", par, i)
			}
		}
		if reflect.DeepEqual(point(0), point(4)) {
			t.Errorf("p=%d: sweeping pred.bytes 75776→151552 changed nothing; axis not applied?", par)
		}
		var buf bytes.Buffer
		if err := EmitAll(NewCSVSink(&buf, run.exp.AxisNames()...), run.rs); err != nil {
			t.Fatal(err)
		}
		csvs = append(csvs, buf.Bytes())
	}
	if !bytes.Equal(csvs[0], csvs[1]) {
		t.Fatalf("sweep CSV differs across worker counts:\np=1:\n%sp=4:\n%s", csvs[0], csvs[1])
	}
}

// TestMemoPlanOwnsKeysAtFirstPoint pins the plan behind the memo: on
// the canonical grid each pred.bytes value's first point (0 and 4) owns
// its two replays, so the 32 cells are 4 jobs, one per (owning point,
// benchmark), each replaying 2 configurations and delivering 8 cells;
// the six points with nothing left to replay get no job at all.
func TestMemoPlanOwnsKeysAtFirstPoint(t *testing.T) {
	wl := memoWorkload(t, "gzip", "vpr")
	exp, err := New(WithWorkload(wl), WithSchemes("conventional", "predpred"), WithMode(ModeTrace),
		WithAxis("pred.bytes", 75776, 151552), WithAxis("mispredict.penalty", 5, 10, 15, 20))
	if err != nil {
		t.Fatal(err)
	}
	jobs := exp.buildJobs(wl, exp.plan(exp.Points()), 0)
	if len(jobs) != 4 {
		t.Fatalf("want 4 jobs, got %d", len(jobs))
	}
	for k, j := range jobs {
		owner := 4 * (k / 2)
		if len(j.cfgs) != 2 || len(j.cells) != 8 || j.bench != wl.progs[k%2].Spec.Name {
			t.Fatalf("job %d: %s, %d configurations, %d cells; want %s, 2, 8", k, j.bench, len(j.cfgs), len(j.cells), wl.progs[k%2].Spec.Name)
		}
		for _, c := range j.cells {
			if c.memo != (c.point.Index != owner) || c.err != nil {
				t.Errorf("job %d: cell at point %d has memo %v, err %v; only point %d's cells replay", k, c.point.Index, c.memo, c.err, owner)
			}
		}
	}
}

// TestMemoSweepManifests pins memo provenance in run manifests:
// memo-served cells are flagged and carry no phase timings, replayed
// cells carry their pass's phases, and the manifest stream, memo flags
// and phase fields included, is byte-identical across worker counts:
// which cell replays a shared key is planned at Start, not raced for by
// the workers.
func TestMemoSweepManifests(t *testing.T) {
	wl := memoWorkload(t, "gzip", "vpr")
	dir := t.TempDir()
	memoTraces(t, wl, dir) // both runs then see "hit" trace provenance
	var streams [][]byte
	for _, par := range []int{1, 4} {
		run := memoGrid(t, wl, dir, par)
		if len(run.manifests) != 32 {
			t.Fatalf("p=%d: want 32 cell manifests, got %d", par, len(run.manifests))
		}
		memo := 0
		for _, m := range run.manifests {
			if m.Memo {
				memo++
				if len(m.PhasesNS) != 0 {
					t.Errorf("p=%d: memo-served cell %s/%s point %d has phases %v", par, m.Bench, m.Scheme, m.Point, m.PhasesNS)
				}
			} else if len(m.PhasesNS) == 0 {
				t.Errorf("p=%d: replayed cell %s/%s point %d has no phases", par, m.Bench, m.Scheme, m.Point)
			}
		}
		if memo != 24 {
			t.Errorf("p=%d: want 24 memo-served manifests, got %d", par, memo)
		}
		var buf bytes.Buffer
		if err := obs.WriteManifests(&buf, run.manifests); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, buf.Bytes())
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatalf("manifests differ across worker counts:\np=1:\n%sp=4:\n%s", streams[0], streams[1])
	}
}

// TestMemoCatchesUndeclaredReuse covers reuse that per-knob
// declarations could not see — a free-form axis touching only a
// pipeline field, and one scheme listed twice, whose second cell is
// served from its first cell's replay — plus
// gshare.idxbits, whose reuse used to rest on such a declaration.
// Every cell must still match a direct replay.
func TestMemoCatchesUndeclaredReuse(t *testing.T) {
	depth := func(c *Config, v string) error {
		_, err := fmt.Sscan(v, &c.FrontendDepth)
		return err
	}
	wl := memoWorkload(t, "vpr")
	for _, tc := range []struct {
		name         string
		schemes      []string
		axes         []Option
		hits, misses uint64
	}{
		{"frontend-depth mutator axis", []string{"conventional", "predpred"},
			[]Option{WithMutatorAxis("frontend.depth", depth, 3, 5, 7)}, 4, 2},
		{"duplicate scheme", []string{"predpred", "predpred"},
			[]Option{WithAxis("pred.bytes", 75776, 151552)}, 2, 2},
		{"gshare.idxbits", []string{"conventional", "predpred"},
			[]Option{WithAxis("gshare.idxbits", 10, 12, 14)}, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			run := runMemoSweep(t, wl, dir, 2, tc.schemes, tc.axes...)
			if run.hits != tc.hits || run.misses != tc.misses {
				t.Errorf("want %d hits / %d misses, got %d / %d", tc.hits, tc.misses, run.hits, run.misses)
			}
			checkAgainstReplay(t, wl, dir, run)
		})
	}
}

// TestMemoKeepsValidationErrors checks that validation runs before the
// memo, per cell: a point invalid only in a pipeline field shares its
// replay key with a valid point yet keeps its own error, and a cell
// with an unknown scheme fails alone while its sibling is still served.
func TestMemoKeepsValidationErrors(t *testing.T) {
	breakCfg := func(c *Config, v string) error {
		switch v {
		case "rob":
			c.ROBEntries = 4
		case "scheme":
			if c.Scheme == config.SchemePredicate {
				c.Scheme = config.Scheme(42)
			}
		}
		return nil
	}
	wl := memoWorkload(t, "vpr")
	for _, par := range []int{1, 2} {
		run := runMemoSweep(t, wl, t.TempDir(), par, []string{"conventional", "predpred"},
			WithMutatorAxis("break", breakCfg, "none", "rob", "scheme"))
		if run.hits != 1 || run.misses != 2 {
			t.Errorf("p=%d: want 1 hit / 2 misses, got %d / %d", par, run.hits, run.misses)
		}
		valid, rob, scheme := run.rs[0:2], run.rs[2:4], run.rs[4:6]
		for _, r := range valid {
			if r.Err != nil || r.Stats.Committed == 0 {
				t.Errorf("p=%d: valid %s: err %v, committed %d", par, r.Scheme, r.Err, r.Stats.Committed)
			}
		}
		for _, r := range rob {
			if r.Err == nil || r.Stats.Committed != 0 {
				t.Errorf("p=%d: ROB-invalid %s must keep its validation error, got err %v with stats %+v", par, r.Scheme, r.Err, r.Stats)
			}
		}
		if r := scheme[0]; r.Err != nil || !reflect.DeepEqual(r.Stats, valid[0].Stats) {
			t.Errorf("p=%d: conventional beside an unknown scheme: err %v, stats %+v, want %+v", par, r.Err, r.Stats, valid[0].Stats)
		}
		if r := scheme[1]; r.Err == nil {
			t.Errorf("p=%d: unknown scheme must fail validation", par)
		}
	}
}
