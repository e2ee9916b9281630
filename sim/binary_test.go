package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// acquisitions is the process's trace acquisitions so far: the disk
// cache's hits plus the recordings.
func acquisitions() uint64 {
	m := ProcessMetrics()
	return m.CounterValue("trace.cache.hits") + m.CounterValue("trace.recordings")
}

// lookups is the number of trace acquisitions spanned on o.
func lookups(o *Observer) uint64 {
	h, _ := o.Metrics().HistogramValue("span.cache-lookup.ns")
	return h.Count
}

// traceRun runs a trace-mode conventional and predpred experiment over
// wl at a commit budget, observed by o, and returns it with its
// results.
func traceRun(t *testing.T, wl *Workload, dir string, commits uint64, ifconv bool, o *Observer) (*Experiment, []Result) {
	t.Helper()
	exp, err := New(WithWorkload(wl), WithSchemes("conventional", "predpred"), WithCommits(commits),
		WithIfConversion(ifconv), WithMode(ModeTrace), WithTraceDir(dir), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Bench, r.Scheme, r.Err)
		}
	}
	return exp, rs
}

// checkExactReplay holds every cell of a plain trace-mode run to a
// direct stats.Replay over a trace recorded afresh at the run's own
// budget, so a cell that replayed a longer held trace must match one
// that never saw it.
func checkExactReplay(t *testing.T, wl *Workload, exp *Experiment, rs []Result) {
	t.Helper()
	for _, pg := range wl.progs {
		tr, err := trace.Record(context.Background(), pg.Plain.Prog, exp.commits)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Bench != pg.Spec.Name {
				continue
			}
			cfg, err := exp.cellConfig(r.Point, r.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stats.Replay(cfg, pg.Plain.Prog, tr, exp.commits)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Stats, want) {
				t.Errorf("%d commits, %s/%s: stats differ from a direct replay:\n got: %+v\nwant: %+v",
					exp.commits, r.Bench, r.Scheme, r.Stats, want)
			}
		}
	}
}

// TestBinaryOwnsItsTrace pins the workload's ownership of its binaries'
// traces: a second experiment on the workload acquires nothing, a
// larger budget acquires once more and a smaller one then replays the
// longer trace held (each cell equal to a direct replay of a trace
// recorded at its own budget), a subset replays its parent's converted
// traces, and the lookup spans land on the acquiring experiment's
// observer.
func TestBinaryOwnsItsTrace(t *testing.T) {
	wl := memoWorkload(t, "gzip", "vpr")
	dir := t.TempDir()

	o := NewObserver()
	recs := ProcessMetrics().CounterValue("trace.recordings")
	traceRun(t, wl, dir, 40000, false, o)
	if d := ProcessMetrics().CounterValue("trace.recordings") - recs; d != 2 || lookups(o) != 2 {
		t.Fatalf("the first experiment recorded %d traces and spanned %d lookups, want 2 and 2", d, lookups(o))
	}

	// (a) A second experiment on the workload acquires nothing.
	n, o := acquisitions(), NewObserver()
	traceRun(t, wl, dir, 40000, false, o)
	if d := acquisitions() - n; d != 0 || lookups(o) != 0 {
		t.Errorf("a second experiment acquired %d traces and spanned %d lookups, want none", d, lookups(o))
	}

	// (b) A larger budget acquires once per binary (the disk holds the
	// shorter trace, so it records); a smaller one then replays the
	// trace held.
	recs, o = ProcessMetrics().CounterValue("trace.recordings"), NewObserver()
	exp, rs := traceRun(t, wl, dir, 60000, false, o)
	if d := ProcessMetrics().CounterValue("trace.recordings") - recs; d != 2 || lookups(o) != 2 {
		t.Errorf("a larger budget recorded %d traces and spanned %d lookups, want 2 and 2", d, lookups(o))
	}
	checkExactReplay(t, wl, exp, rs)
	held := wl.progs[0].Plain.tr
	if held == nil || !held.Covers(60000) {
		t.Fatalf("gzip holds no trace covering the larger budget")
	}
	n, o = acquisitions(), NewObserver()
	exp, rs = traceRun(t, wl, dir, 30000, false, o)
	if d := acquisitions() - n; d != 0 || lookups(o) != 0 {
		t.Errorf("a smaller budget acquired %d traces and spanned %d lookups, want none", d, lookups(o))
	}
	if wl.progs[0].Plain.tr != held {
		t.Error("a smaller budget replaced the longer trace the binary held")
	}
	checkExactReplay(t, wl, exp, rs)

	// (c) A subset replays its parent's converted traces.
	traceRun(t, wl, dir, 40000, true, NewObserver())
	sub, err := wl.Subset("vpr")
	if err != nil {
		t.Fatal(err)
	}
	n, o = acquisitions(), NewObserver()
	traceRun(t, sub, dir, 40000, true, o)
	if d := acquisitions() - n; d != 0 || lookups(o) != 0 {
		t.Errorf("a subset acquired %d converted traces and spanned %d lookups, want none", d, lookups(o))
	}
}

// TestConcurrentExperimentsAcquireOnce starts two trace-mode sweeps of
// two chunks each over one fresh workload at once, on two workers
// each: every binary is acquired once between them, and both deliver
// the same cells.
func TestConcurrentExperimentsAcquireOnce(t *testing.T) {
	wl := memoWorkload(t, "gzip", "vpr")
	dir := t.TempDir()
	o := NewObserver()
	var exps [2]*Experiment
	var runners [2]*Runner
	for i := range exps {
		exp, err := New(WithWorkload(wl), WithSchemes("predpred"), WithCommits(memoCommits), WithMode(ModeTrace),
			WithTraceDir(dir), WithObserver(o), WithParallelism(2),
			WithAxis("conf.bits", 1, 2, 3, 4, 5, 6, 7, 8), WithAxis("ras.entries", 16, 32))
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = exp
	}
	n := acquisitions()
	for i, exp := range exps {
		r, err := exp.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	var rs [2][]Result
	for i, r := range runners {
		for res := range r.Results() {
			if res.Err != nil {
				t.Fatalf("%s/%s: %v", res.Bench, res.Scheme, res.Err)
			}
			rs[i] = append(rs[i], res)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		SortResults(rs[i])
	}
	if d := acquisitions() - n; d != 2 || lookups(o) != 2 {
		t.Errorf("two concurrent sweeps acquired %d traces and spanned %d lookups, want 2 and 2", d, lookups(o))
	}
	if len(rs[0]) != 32 || !reflect.DeepEqual(rs[0], rs[1]) {
		t.Errorf("two concurrent sweeps over one workload delivered different cells (%d and %d)", len(rs[0]), len(rs[1]))
	}
}
