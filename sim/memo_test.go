package sim

import (
	"bytes"
	"context"
	"reflect"
	"slices"
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

// memoTrace is one benchmark's replayed program and its trace.
type memoTrace struct {
	prog *Program
	tr   *trace.Trace
}

// memoTraces loads (recording into dir on first use) the trace every
// memo-test sweep over wl replays, by benchmark.
func memoTraces(t *testing.T, wl *Workload, dir string) map[string]memoTrace {
	t.Helper()
	p := newTraceProvider(dir, memoCommits, nil)
	traces := map[string]memoTrace{}
	for _, pg := range wl.progs {
		tr, err := p.get(context.Background(), pg.Spec.Name, pg.Plain)
		if err != nil {
			t.Fatal(err)
		}
		traces[pg.Spec.Name] = memoTrace{pg.Plain, tr}
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
		mt := traces[r.Bench]
		want, err := stats.Replay(cfg, mt.prog, mt.tr, memoCommits)
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
// 32 cells over 8 distinct replay configurations.
func memoGrid(t *testing.T, wl *Workload, dir string, par int) memoRun {
	return runMemoSweep(t, wl, dir, par, []string{"conventional", "predpred"},
		WithAxis("pred.bytes", 75776, 151552),
		WithAxis("mispredict.penalty", 5, 10, 15, 20),
	)
}

// memoGridEngines derives the engines the canonical grid's passes run
// over gzip and vpr from the in-pass rule: a scheme's two pred.bytes
// configurations share one engine on a benchmark exactly when both
// tables alias its sites alike (stats.Partitions). gzip's budgets
// alias its sites differently and vpr's alike, so the grid exercises
// both outcomes.
func memoGridEngines(t *testing.T, wl *Workload) uint64 {
	t.Helper()
	var engines uint64
	for _, pg := range wl.progs {
		alike := true
		for _, scheme := range []config.Scheme{config.SchemeConventional, config.SchemePredicate} {
			small, large := config.Default().WithScheme(scheme), config.Default().WithScheme(scheme)
			small.L2PredBytes, large.L2PredBytes = 75776, 151552
			sb, sd := stats.Partitions(small, pg.Plain)
			lb, ld := stats.Partitions(large, pg.Plain)
			engines += 2
			if slices.Equal(sb, lb) && slices.Equal(sd, ld) {
				engines--
			} else {
				alike = false
			}
		}
		if want := pg.Spec.Name == "vpr"; alike != want {
			t.Fatalf("%s: the two budgets alias its sites alike %v, want %v", pg.Spec.Name, alike, want)
		}
	}
	return engines
}

func memoWorkload(t *testing.T, names ...string) *Workload {
	t.Helper()
	return PrepareEntries(t, memoCommits, names...)
}

// TestMemoSweepExactCounts pins the replay memo's reuse: whatever the
// worker count, the canonical grid runs one engine per distinct
// (benchmark, engine key) — 6 of its 8 (benchmark, replay-visible
// config) pairs, since vpr's two budgets share one engine per scheme
// (memoGridEngines) — and serves the other 26 cells from the memo,
// every cell matches a direct replay, and the sweep's CSV rows are
// byte-identical across worker counts.
func TestMemoSweepExactCounts(t *testing.T) {
	wl := memoWorkload(t, "gzip", "vpr")
	engines := memoGridEngines(t, wl)
	if engines != 6 {
		t.Fatalf("the grid's passes run %d engines by the in-pass rule, want 6", engines)
	}
	dir := t.TempDir()
	var csvs [][]byte
	for _, par := range []int{1, 4} {
		run := memoGrid(t, wl, dir, par)
		if run.hits != 32-engines || run.misses != engines {
			t.Errorf("p=%d: want %d memo hits / %d engines run, got %d / %d", par, 32-engines, engines, run.hits, run.misses)
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

// TestMemoPlanOwnsKeysAtFirstPoint pins the plan behind the memo: the
// distinct replays are numbered in first-use order across the points
// and cut into chunks of at most replayChunk, each chunk is one job per
// benchmark (chunk-major), and a cell replays only at the first point
// that uses its configuration. On the canonical grid each pred.bytes
// value's first point (0 and 4) owns two replays, and the four fit one
// chunk: the 32 cells are 2 jobs, each replaying 4 configurations and
// delivering 16 cells. Over replayChunk+1 pred.bytes values the
// 2*replayChunk+2 replays are three chunks, so 6 jobs, and the two
// benchmarks of the last chunk still run as two jobs.
func TestMemoPlanOwnsKeysAtFirstPoint(t *testing.T) {
	wl := memoWorkload(t, "gzip", "vpr")
	bytes := make([]any, replayChunk+1)
	for i := range bytes {
		bytes[i] = 37888 * (i + 1)
	}
	for _, tc := range []struct {
		name        string
		axes        []Option
		cfgs, cells []int // per chunk
	}{
		{"canonical grid", []Option{WithAxis("pred.bytes", 75776, 151552), WithAxis("mispredict.penalty", 5, 10, 15, 20)},
			[]int{4}, []int{16}},
		{"2K+2 replays", []Option{WithAxis("pred.bytes", bytes...)},
			[]int{replayChunk, replayChunk, 2}, []int{replayChunk, replayChunk, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exp, err := New(append([]Option{WithWorkload(wl), WithSchemes("conventional", "predpred"), WithMode(ModeTrace)}, tc.axes...)...)
			if err != nil {
				t.Fatal(err)
			}
			jobs := exp.buildJobs(wl, exp.plan(exp.Points()), 0)
			if len(jobs) != 2*len(tc.cfgs) {
				t.Fatalf("want %d jobs, one per (chunk, benchmark), got %d", 2*len(tc.cfgs), len(jobs))
			}
			firstUse := map[stats.EngineConfig]int{}
			for _, pt := range exp.Points() {
				for _, scheme := range exp.schemes {
					cfg, err := exp.cellConfig(pt, scheme)
					if err != nil {
						t.Fatal(err)
					}
					if _, seen := firstUse[stats.EngineConfigOf(cfg)]; !seen {
						firstUse[stats.EngineConfigOf(cfg)] = pt.Index
					}
				}
			}
			for k, j := range jobs {
				chunk, bench := k/2, wl.progs[k%2].Spec.Name
				if j.bench != bench || len(j.cfgs) != tc.cfgs[chunk] || len(j.cells) != tc.cells[chunk] {
					t.Fatalf("job %d: %s, %d configurations, %d cells; want %s, %d, %d",
						k, j.bench, len(j.cfgs), len(j.cells), bench, tc.cfgs[chunk], tc.cells[chunk])
				}
				for _, c := range j.cells {
					key := stats.EngineConfigOf(c.cfg)
					if c.err != nil || c.key < 0 || stats.EngineConfigOf(j.cfgs[c.key]) != key {
						t.Fatalf("job %d: cell at point %d (%s) is not planned onto its own replay: key %d, err %v",
							k, c.point.Index, exp.schemes[c.scheme], c.key, c.err)
					}
					if owner := firstUse[key]; c.memo != (c.point.Index != owner) {
						t.Errorf("job %d: cell at point %d has memo %v; its replay belongs to point %d", k, c.point.Index, c.memo, owner)
					}
				}
			}
		})
	}
}

// TestMemoSweepManifests pins memo provenance in run manifests:
// memo-served cells, planned or merged inside a pass, are flagged and
// carry no phase timings, replayed cells carry their pass's phases, and the manifest stream, memo flags
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
		if want := 32 - int(memoGridEngines(t, wl)); memo != want {
			t.Errorf("p=%d: want %d memo-served manifests, got %d", par, want, memo)
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
// declarations could not see — an axis over a pipeline-only knob under
// a configuration mutator that touches only a pipeline field, and one
// scheme listed twice, whose second cell is served from its first
// cell's replay (and whose two budgets, aliasing vpr's sites alike,
// share one engine) — plus gshare.idxbits, whose reuse used to rest on
// such a declaration. Every cell must still match a direct replay.
func TestMemoCatchesUndeclaredReuse(t *testing.T) {
	depth := func(c *Config) { c.FrontendDepth = 5 }
	wl := memoWorkload(t, "vpr")
	for _, tc := range []struct {
		name         string
		schemes      []string
		axes         []Option
		hits, misses uint64
	}{
		{"rob.entries under a frontend-depth mutator", []string{"conventional", "predpred"},
			[]Option{WithConfigMutator(depth), WithAxis("rob.entries", 64, 128, 256)}, 4, 2},
		{"duplicate scheme", []string{"predpred", "predpred"},
			[]Option{WithAxis("pred.bytes", 75776, 151552)}, 3, 1},
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
// memo, per cell: a point invalid only in a pipeline field (rob.entries
// below Validate's minimum) shares its replay key with valid points yet
// keeps its own error and serves none of them, and a cell whose
// configuration mutator gives it an unknown scheme fails alone while
// its sibling is still served.
func TestMemoKeepsValidationErrors(t *testing.T) {
	breakScheme := func(c *Config) {
		if c.Scheme == config.SchemePredicate {
			c.Scheme = config.Scheme(42)
		}
	}
	wl := memoWorkload(t, "vpr")
	for _, par := range []int{1, 2} {
		run := runMemoSweep(t, wl, t.TempDir(), par, []string{"conventional", "predpred"},
			WithAxis("rob.entries", 256, 4, 128))
		if run.hits != 2 || run.misses != 2 {
			t.Errorf("p=%d: want 2 hits / 2 misses, got %d / %d", par, run.hits, run.misses)
		}
		valid, rob, served := run.rs[0:2], run.rs[2:4], run.rs[4:6]
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
		for i, r := range served {
			if r.Err != nil || !reflect.DeepEqual(r.Stats, valid[i].Stats) {
				t.Errorf("p=%d: %s past the ROB-invalid point: err %v, stats %+v, want %+v", par, r.Scheme, r.Err, r.Stats, valid[i].Stats)
			}
		}

		run = runMemoSweep(t, wl, t.TempDir(), par, []string{"conventional", "predpred"},
			WithConfigMutator(breakScheme), WithAxis("mispredict.penalty", 10, 20))
		if run.hits != 1 || run.misses != 1 {
			t.Errorf("p=%d: want 1 hit / 1 miss beside an unknown scheme, got %d / %d", par, run.hits, run.misses)
		}
		conv, unknown := []Result{run.rs[0], run.rs[2]}, []Result{run.rs[1], run.rs[3]}
		if r := conv[1]; conv[0].Err != nil || r.Err != nil || conv[0].Stats.Committed == 0 || !reflect.DeepEqual(r.Stats, conv[0].Stats) {
			t.Errorf("p=%d: conventional beside an unknown scheme: err %v / %v, stats %+v, want %+v", par, conv[0].Err, r.Err, r.Stats, conv[0].Stats)
		}
		for _, r := range unknown {
			if r.Err == nil {
				t.Errorf("p=%d: unknown scheme must fail validation", par)
			}
		}
	}
}
