package stats

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/trace"
)

// TestConcurrentPassesDoNotWait starts two passes of every scheme
// over one binary through one empty store, each meeting the other on
// its first clock read, which comes after the pass has looked the store
// up. A pass that waited for the other to store its predictor would
// never meet it. Both must run the predictor (the conventional engine
// and the predicate engine's shadow read one), the store must keep one
// entry for it, a later pass must read that entry, and every pass must
// equal a pass with no store.
func TestConcurrentPassesDoNotWait(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(spec)
	const commits = 60000
	tr, err := trace.Record(context.Background(), prog, commits)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := schemeCfgs()
	want, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.ConvRun != 1 {
		t.Fatalf("a pass of every scheme ran %d conventional predictors, want 1", want.ConvRun)
	}
	var store Outcomes
	var arrived atomic.Int32
	both := make(chan struct{})
	meet := func() func() int64 {
		var met bool
		return func() int64 {
			if !met {
				met = true
				if arrived.Add(1) == 2 {
					close(both)
				}
				select {
				case <-both:
				case <-time.After(10 * time.Second):
					t.Error("no second pass arrived: one pass waited for the other")
				}
			}
			return 0
		}
	}
	passes := make([]Pass, 2)
	errs := make([]error, len(passes))
	var wg sync.WaitGroup
	for i := range passes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			passes[i], errs[i] = ReplayAll(context.Background(), cfgs, prog, tr, commits, &store, meet())
		}()
	}
	wg.Wait()
	later, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, &store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range append(passes, later) {
		if i < len(errs) && errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(p.Stats, want.Stats) {
			t.Errorf("pass %d: stats diverge from the pass with no store", i)
		}
		run := 1
		if i == len(passes) {
			run = 0
		}
		if p.ConvRun != run || p.ConvReused != 1-run {
			t.Errorf("pass %d: ran %d conventional predictors and reused %d, want %d and %d", i, p.ConvRun, p.ConvReused, run, 1-run)
		}
	}
	if len(store.entries) != 1 {
		t.Errorf("two passes of one key left %d stored entries, want 1", len(store.entries))
	}
}

// TestOutcomesKeepTheLatest stores more than maxOutcomes keys and
// checks that the store keeps the latest maxOutcomes in order and finds
// none of the dropped ones.
func TestOutcomesKeepTheLatest(t *testing.T) {
	var store Outcomes
	const n = maxOutcomes + 3
	for ghr := range uint(n) {
		c := &convPass{key: convKey{ghr: ghr}, keep: true, bits: make([]uint64, batchWords), events: 1}
		store.store(1, 0, []*convPass{c})
	}
	if len(store.entries) != maxOutcomes {
		t.Fatalf("store holds %d entries after %d keys, want %d", len(store.entries), n, maxOutcomes)
	}
	for ghr := range uint(n) {
		kept := store.find(1, convKey{ghr: ghr}, 0) != nil
		if want := ghr >= n-maxOutcomes; kept != want {
			t.Errorf("key %d: stored %v, want %v", ghr, kept, want)
		}
	}
}

// TestOutcomesStoreOnlyCompletedPasses checks that a pass that does
// not complete stores nothing: a cancelled pass and a pass over a trace
// that turns out corrupt leave the key to the next pass, which runs the
// predictor. A pass at another commit budget reads nothing either.
func TestOutcomesStoreOnlyCompletedPasses(t *testing.T) {
	b := gzip(t)
	prog := b.Plain
	tr, err := trace.Record(context.Background(), prog, 40000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []config.Config{config.Default()}
	var store Outcomes
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplayAll(ctx, cfgs, prog, tr, 0, &store, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: err = %v, want context.Canceled", err)
	}
	bad := *tr
	bad.Events = append(append([]byte(nil), tr.Events...), 0, trace.EvCall, 0) // a call at pc 0, which holds none
	if _, err := ReplayAll(context.Background(), cfgs, prog, &bad, 0, &store, nil); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("corrupt pass: err = %v, want trace.ErrCorrupt", err)
	}
	for i, commits := range []uint64{0, 0, 20000} {
		p, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, &store, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := []int{1, 0, 1}[i] // the second pass reads what the first stored
		if p.ConvRun != run || p.ConvReused != 1-run {
			t.Errorf("pass %d (budget %d): ran %d conventional predictors and reused %d, want %d and %d",
				i, commits, p.ConvRun, p.ConvReused, run, 1-run)
		}
	}
}
