package stats

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/trace"
)

// TestReplayAllTimedMatchesUntimed extends the equality oracle to the
// timed path: the clock reads sit between phases, so the statistics
// must be bit-identical to the untimed replay, and the breakdown must
// account every phase of every batch.
func TestReplayAllTimedMatchesUntimed(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(spec)
	tr, err := trace.Record(context.Background(), prog, 50000)
	if err != nil {
		t.Fatal(err)
	}
	// The fourth configuration repeats the first, so the first's engine
	// serves it and its engine time reads 0.
	cfgs := append(schemeCfgs(), schemeCfgs()[0])
	const commits = 40000

	plain, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timings != nil {
		t.Errorf("untimed replay returned Timings %+v, want nil", plain.Timings)
	}

	// A fake clock advancing a fixed step per read makes every phase
	// duration a deterministic function of the read sequence.
	var clock int64
	now := func() int64 {
		clock += 10
		return clock
	}
	timed, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, timed.Stats) || !reflect.DeepEqual(plain.Engine, timed.Engine) {
		t.Errorf("timed replay diverges from untimed:\n timed: %+v %v\n plain: %+v %v", timed.Stats, timed.Engine, plain.Stats, plain.Engine)
	}
	tm := timed.Timings
	if tm.Batches == 0 {
		t.Fatal("timed replay recorded no batches")
	}
	// Each phase is bounded by one 10-unit clock step per batch.
	if want := tm.Batches * 10; tm.DecodeNS != want {
		t.Errorf("DecodeNS = %d, want %d (one fake-clock step per batch)", tm.DecodeNS, want)
	}
	if want := tm.Batches * 10; tm.FrontendNS != want {
		t.Errorf("FrontendNS = %d, want %d", tm.FrontendNS, want)
	}
	if len(tm.EngineNS) != len(cfgs) {
		t.Fatalf("EngineNS has %d entries for %d configs", len(tm.EngineNS), len(cfgs))
	}
	for k, ns := range tm.EngineNS {
		want := tm.Batches * 10
		if timed.Engine[k] != k {
			want = 0
		}
		if ns != want {
			t.Errorf("EngineNS[%d] = %d, want %d", k, ns, want)
		}
	}
	if want := []int{0, 1, 2, 0}; !reflect.DeepEqual(timed.Engine, want) {
		t.Errorf("engines by configuration %v, want %v", timed.Engine, want)
	}
	// A replay that fails before its first batch still reports an
	// (empty) breakdown, so observed callers can attribute the cell.
	bad := cfgs[0]
	bad.FetchWidth = 0
	failed, err := ReplayAll(context.Background(), []config.Config{bad}, prog, tr, commits, nil, func() int64 { return 0 })
	if err == nil {
		t.Fatal("invalid configuration should fail")
	}
	if want := (&Timings{EngineNS: []int64{0}}); !reflect.DeepEqual(failed.Timings, want) {
		t.Errorf("failed timed replay Timings = %+v, want %+v", failed.Timings, want)
	}
}

// TestSessionReplayAllTimed pins that two timed replays under identical
// fake clocks produce identical breakdowns. (The name is kept from the
// replay-session type this test once drove.)
func TestSessionReplayAllTimed(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(spec)
	tr, err := trace.Record(context.Background(), prog, 30000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []config.Config{config.Default().WithScheme(config.SchemePredicate)}
	run := func() *Timings {
		var clock int64
		now := func() int64 {
			clock += 7
			return clock
		}
		p, err := ReplayAll(context.Background(), cfgs, prog, tr, 20000, nil, now)
		if err != nil {
			t.Fatal(err)
		}
		return p.Timings
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identically-clocked timed replays differ:\n a: %+v\n b: %+v", a, b)
	}
}
