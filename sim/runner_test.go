package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerCancellationAccounting pins the runner's bookkeeping when a
// run is cut short: cancelling mid-run leaves finished < total, Wait
// reports the context error, every streamed result was a completed cell
// (partial cells are dropped), Progress.Done stays monotone, and no
// goroutine of the pool outlives Wait (a job feeder that ignored the
// cancelled context would block forever on its next send). Both
// modes are exercised — trace mode additionally covers dropping a
// coalesced multi-scheme job whole.
func TestRunnerCancellationAccounting(t *testing.T) {
	wl := PrepareEntries(t, 60000, "gzip", "vpr")
	for _, mode := range []Mode{ModePipeline, ModeTrace} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var dones []int
			// 2 benchmarks × 2 schemes = 4 cells; one serial worker, so
			// cancelling once benchmark #1's cells have reported leaves
			// benchmark #2 (a whole coalesced job in trace mode)
			// undone.
			exp, err := New(
				WithWorkload(wl),
				WithSchemes("conventional", "predpred"),
				WithCommits(60000),
				WithMode(mode),
				WithTraceDir(t.TempDir()),
				WithParallelism(1),
				WithProgress(func(p Progress) {
					dones = append(dones, p.Done)
					if p.Done == 2 {
						cancel()
					}
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			r, err := exp.Start(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var streamed int
			for res := range r.Results() {
				if res.Err != nil {
					t.Errorf("%s/%s: unexpected per-run error: %v", res.Bench, res.Scheme, res.Err)
				}
				streamed++
			}
			if err := r.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Wait() = %v, want context.Canceled", err)
			}
			WaitGoroutines(t, before)
			if streamed >= r.Total() {
				t.Fatalf("cancelled run must leave finished < total, got %d of %d", streamed, r.Total())
			}
			if len(dones) != streamed {
				t.Fatalf("progress callbacks (%d) must match streamed results (%d)", len(dones), streamed)
			}
			for i, d := range dones {
				if d != i+1 {
					t.Fatalf("Progress.Done not monotone: %v", dones)
				}
			}
		})
	}
}

// rate's divide-by-zero guard is what keeps MemStats usable on trace
// runs, where no memory hierarchy exists and every counter is zero.
func TestRate(t *testing.T) {
	cases := []struct {
		miss, acc uint64
		want      float64
	}{
		{0, 0, 0}, // zero accesses: guarded, not NaN
		{5, 0, 0}, // miss counter without accesses still must not divide
		{0, 100, 0},
		{25, 100, 0.25},
		{100, 100, 1},
		{1, 3, 1.0 / 3.0},
	}
	for _, c := range cases {
		got := rate(c.miss, c.acc)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("rate(%d, %d) = %v, want finite", c.miss, c.acc, got)
			continue
		}
		if got != c.want {
			t.Errorf("rate(%d, %d) = %v, want %v", c.miss, c.acc, got, c.want)
		}
	}
}

func TestMemStatsMissRates(t *testing.T) {
	m := MemStats{
		L1IAccesses: 1000, L1IMisses: 10,
		L1DAccesses: 400, L1DMisses: 100,
		L2Accesses: 110, L2Misses: 11,
	}
	if got := m.L1IMissRate(); got != 0.01 {
		t.Errorf("L1IMissRate = %v, want 0.01", got)
	}
	if got := m.L1DMissRate(); got != 0.25 {
		t.Errorf("L1DMissRate = %v, want 0.25", got)
	}
	if got := m.L2MissRate(); got != 0.1 {
		t.Errorf("L2MissRate = %v, want 0.1", got)
	}
}

func TestMemStatsZeroValue(t *testing.T) {
	// The zero MemStats of a trace-mode Result: every helper must
	// return 0, not NaN (sinks serialize these into JSON, where NaN is
	// unrepresentable).
	var m MemStats
	for name, got := range map[string]float64{
		"L1IMissRate": m.L1IMissRate(),
		"L1DMissRate": m.L1DMissRate(),
		"L2MissRate":  m.L2MissRate(),
	} {
		if got != 0 {
			t.Errorf("%s on zero MemStats = %v, want 0", name, got)
		}
	}
}

// runAtRendezvous runs exp with every job first meeting another at a
// two-party rendezvous, so a pool that runs the jobs one after another
// times out on the first, and returns the sorted results and the number
// of jobs.
func runAtRendezvous(t *testing.T, exp *Experiment) ([]Result, int) {
	t.Helper()
	var arrived atomic.Int32
	both := make(chan struct{})
	rendezvous := func(ctx context.Context, w *worker, j simJob) ([]Result, bool) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			t.Errorf("%s: no second job arrived: the jobs ran one after another", j.bench)
		}
		return exp.runJob(ctx, w, j)
	}
	r, err := exp.start(context.Background(), rendezvous)
	if err != nil {
		t.Fatal(err)
	}
	var rs []Result
	for res := range r.Results() {
		if res.Err != nil {
			t.Errorf("%s/%s at point %d: %v", res.Bench, res.Scheme, res.Point.Index, res.Err)
		}
		rs = append(rs, res)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	SortResults(rs)
	return rs, int(arrived.Load())
}

// TestSweepCellsRunConcurrently pins that a sweep's cells, not its
// points, are the unit of parallel work: the two benchmarks of a
// one-point trace sweep are two jobs, and they run on two workers at
// once.
func TestSweepCellsRunConcurrently(t *testing.T) {
	wl := PrepareEntries(t, 50000, "gzip", "vpr")
	exp, err := New(
		WithWorkload(wl),
		WithSchemes("predpred"),
		WithCommits(20000),
		WithMode(ModeTrace),
		WithTraceDir(t.TempDir()),
		WithParallelism(2),
		WithAxis("mispredict.penalty", 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	rs, jobs := runAtRendezvous(t, exp)
	if len(rs) != 2 || jobs != 2 {
		t.Fatalf("want one point of 2 cells from 2 jobs, got %d jobs and cells %+v", jobs, rs)
	}
	for i, r := range rs {
		if r.Seq != i || r.Bench != wl.progs[i].Spec.Name {
			t.Errorf("cell %d is %s at Seq %d; want %s at Seq %d", i, r.Bench, r.Seq, wl.progs[i].Spec.Name, i)
		}
	}
}

// TestSweepChunksRunConcurrently pins that one benchmark's replays
// still spread over the workers: a one-benchmark sweep over
// 2*replayChunk distinct configurations is two chunks, so two jobs,
// and they start on two workers at once. Their passes then share the
// binary's stored outcomes without waiting for each other, which
// internal/stats TestConcurrentPassesDoNotWait pins inside ReplayAll.
func TestSweepChunksRunConcurrently(t *testing.T) {
	wl := PrepareEntries(t, 50000, "vpr")
	bytes := make([]any, replayChunk)
	for i := range bytes {
		bytes[i] = 37888 * (i + 1)
	}
	exp, err := New(
		WithWorkload(wl),
		WithSchemes("conventional", "predpred"),
		WithCommits(20000),
		WithMode(ModeTrace),
		WithTraceDir(t.TempDir()),
		WithParallelism(2),
		WithAxis("pred.bytes", bytes...),
	)
	if err != nil {
		t.Fatal(err)
	}
	rs, jobs := runAtRendezvous(t, exp)
	if len(rs) != 2*replayChunk || jobs != 2 {
		t.Fatalf("want %d cells from 2 jobs, got %d cells from %d jobs", 2*replayChunk, len(rs), jobs)
	}
}
