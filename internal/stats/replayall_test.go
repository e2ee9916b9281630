package stats

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/trace"
)

// replaySchemes is the paper's three-way comparison (Figure 6a), the
// canonical multi-scheme replay.
var replaySchemes = []config.Scheme{config.SchemeConventional, config.SchemePredicate, config.SchemePEPPA}

func schemeCfgs() []config.Config {
	cfgs := make([]config.Config, len(replaySchemes))
	for i, sch := range replaySchemes {
		cfgs[i] = config.Default().WithScheme(sch)
	}
	return cfgs
}

// TestReplayAllMatchesIndependentReplays is the single-pass engine's
// equality oracle: for every suite benchmark, ReplayAll over all three
// schemes must produce per-scheme statistics bit-identical to N
// independent Replay calls of the same trace — the shared frontend and
// batched cursor are implementation, not semantics.
func TestReplayAllMatchesIndependentReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("records a trace per suite benchmark; skipped with -short")
	}
	const commits = 40000
	cfgs := schemeCfgs()
	for _, spec := range bench.Suite() {
		tr, err := trace.Record(context.Background(), bench.Build(spec), commits+64)
		if err != nil {
			t.Fatal(err)
		}
		all, _, err := ReplayAll(context.Background(), cfgs, tr, commits, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(cfgs) {
			t.Fatalf("%s: ReplayAll returned %d stats for %d configs", spec.Name, len(all), len(cfgs))
		}
		for i, cfg := range cfgs {
			ind, err := Replay(cfg, tr, commits)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all[i], ind) {
				t.Errorf("%s/%s: single-pass stats diverge from independent replay:\n all: %+v\n ind: %+v",
					spec.Name, replaySchemes[i], all[i], ind)
			}
		}
	}
}

// TestReplayAllRepeatsAndMatchesVariants extends the equality oracle to
// heterogeneous configuration sets (the ablation and idealization knobs
// differing per entry) replayed twice over one trace, on one benchmark
// so it stays cheap enough to run without -short. It also pins how a
// replay counts the end of the stream.
func TestReplayAllRepeatsAndMatchesVariants(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), 50000)
	if err != nil {
		t.Fatal(err)
	}
	base := config.Default().WithScheme(config.SchemePredicate)
	ideal := base
	ideal.IdealNoAlias, ideal.IdealPerfectGHR = true, true
	norepair := base
	norepair.DisableGHRRepair = true
	sel := base
	sel.Predication = config.PredicationSelect
	cfgs := []config.Config{
		config.Default().WithScheme(config.SchemeConventional),
		base, ideal, norepair, sel,
		config.Default().WithScheme(config.SchemePEPPA),
	}
	// Two passes over one trace: a replay must leave nothing behind that
	// the next one reads.
	for pass := 0; pass < 2; pass++ {
		all, _, err := ReplayAll(context.Background(), cfgs, tr, 40000, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			ind, err := Replay(cfg, tr, 40000)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all[i], ind) {
				t.Errorf("pass %d, cfg %d: single-pass stats diverge:\n all: %+v\n ind: %+v", pass, i, all[i], ind)
			}
		}
	}

	// End-of-stream accounting: plain instructions after the last event
	// have no record, so every replay commits min(Steps, budget), with
	// budget 0 meaning the whole trace.
	var recorded uint64
	cur := tr.EventCursor()
	var ev trace.Event
	for cur.Next(&ev) {
		recorded += ev.Gap + 1
	}
	if recorded >= tr.Steps {
		t.Fatalf("vpr's recording ends in an event (%d of %d steps); the trailing-gap case needs one that ends in plain instructions", recorded, tr.Steps)
	}
	halting, err := trace.Record(context.Background(), guardedCompareProgram(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		tr     *trace.Trace
		budget uint64
	}{
		{"halting program", halting, 0},
		{"halting program, budget past the halt", halting, halting.Steps + 100},
		{"trailing gap", tr, 0},
		{"trailing gap, budget past the recording", tr, tr.Steps + 100},
		{"budget below Steps", tr, 40000},
	} {
		want := c.tr.Steps
		if c.budget > 0 {
			want = min(want, c.budget)
		}
		all, _, err := ReplayAll(context.Background(), cfgs, c.tr, c.budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range all {
			if st.Committed != want {
				t.Errorf("%s, cfg %d: committed %d, want min(Steps, budget) = %d", c.name, i, st.Committed, want)
			}
		}
	}
}

// TestReplayAllRejectsBadInput pins the error paths: an empty config
// set and an invalid configuration fail up front.
func TestReplayAllRejectsBadInput(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayAll(context.Background(), nil, tr, 0, nil); err == nil {
		t.Error("empty config set should fail")
	}
	bad := config.Default().WithScheme(config.SchemePredicate)
	bad.FetchWidth = 0
	if _, _, err := ReplayAll(context.Background(), []config.Config{bad}, tr, 0, nil); err == nil {
		t.Error("invalid configuration should fail")
	}
}

// TestReplayAllCancellation mirrors TestReplayCancellation for the
// multi-scheme path.
func TestReplayAllCancellation(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), 400000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ReplayAll(ctx, schemeCfgs(), tr, 0, nil); err == nil {
		t.Fatal("want context error from cancelled single-pass replay")
	}
}

func recordBenchTrace(b *testing.B, name string, commits uint64) *trace.Trace {
	b.Helper()
	spec, err := bench.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), commits+64)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkReplayPerScheme measures the independent per-scheme replay
// path (one full decode + frontend pass per scheme).
func BenchmarkReplayPerScheme(b *testing.B) {
	const commits = 50000
	tr := recordBenchTrace(b, "vpr", commits)
	for i, sch := range replaySchemes {
		cfg := config.Default().WithScheme(sch)
		b.Run(sch.String(), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := Replay(cfg, tr, commits); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(commits*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
		_ = i
	}
}

// BenchmarkReplayAllSinglePass measures the single-pass three-scheme
// replay: one decode + frontend pass fanned to all engines. The
// instrs/s metric is aggregate (scheme-replays × committed instructions
// per wall second), comparable to summing the per-scheme times above.
func BenchmarkReplayAllSinglePass(b *testing.B) {
	const commits = 50000
	tr := recordBenchTrace(b, "vpr", commits)
	cfgs := schemeCfgs()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, err := ReplayAll(context.Background(), cfgs, tr, commits, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfgs))*commits*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
