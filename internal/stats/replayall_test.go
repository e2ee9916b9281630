package stats

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/scheme"
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
		prog := bench.Build(spec)
		tr, err := trace.Record(context.Background(), prog, commits+64)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := p.Stats
		if len(all) != len(cfgs) {
			t.Fatalf("%s: ReplayAll returned %d stats for %d configs", spec.Name, len(all), len(cfgs))
		}
		for i, cfg := range cfgs {
			ind, err := Replay(cfg, prog, tr, commits)
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
// so it stays cheap enough to run without -short. The set mixes engines
// that share the pass's conventional predictor (a conventional engine
// and the predicate engines' shadows of the same geometry) with engines
// that must not: an idealized conventional engine, a conventional
// engine of half the budget, and a predicate engine whose shadow has a
// shorter local history. It also pins how a replay counts the end of
// the stream.
func TestReplayAllRepeatsAndMatchesVariants(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(spec)
	tr, err := trace.Record(context.Background(), prog, 50000)
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
	split := base
	split.SplitPVT = true
	shortLHR := base
	shortLHR.L2PredLHRBits = 6
	conv := config.Default().WithScheme(config.SchemeConventional)
	idealConv := conv
	idealConv.IdealNoAlias = true
	halfConv := conv
	halfConv.L2PredBytes = 75776
	if base.L2PredBytes != 151552 {
		t.Fatalf("default second-level budget is %d bytes; the half-budget engine assumes 151552", base.L2PredBytes)
	}
	cfgs := []config.Config{
		conv, base, ideal, norepair, sel,
		config.Default().WithScheme(config.SchemePEPPA),
		idealConv, halfConv, shortLHR, split,
	}
	// Two passes over one trace: a replay must leave nothing behind that
	// the next one reads.
	for pass := 0; pass < 2; pass++ {
		p, err := ReplayAll(context.Background(), cfgs, prog, tr, 40000, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := p.Stats
		// Every predicate engine of the default geometry, the idealized
		// one included, shadows exactly what the conventional engine
		// predicts.
		for _, i := range []int{1, 2, 3, 4, 9} {
			if all[i].ShadowCondBranches != all[0].CondBranches || all[i].ShadowMispred != all[0].BranchMispred {
				t.Errorf("pass %d, cfg %d: shadow %d/%d, conventional engine %d/%d", pass, i,
					all[i].ShadowMispred, all[i].ShadowCondBranches, all[0].BranchMispred, all[0].CondBranches)
			}
		}
		for i, cfg := range cfgs {
			ind, err := Replay(cfg, prog, tr, 40000)
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
	haltProg := guardedCompareProgram(100)
	halting, err := trace.Record(context.Background(), haltProg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		prog   *program.Program
		tr     *trace.Trace
		budget uint64
	}{
		{"halting program", haltProg, halting, 0},
		{"halting program, budget past the halt", haltProg, halting, halting.Steps + 100},
		{"trailing gap", prog, tr, 0},
		{"trailing gap, budget past the recording", prog, tr, tr.Steps + 100},
		{"budget below Steps", prog, tr, 40000},
	} {
		want := c.tr.Steps
		if c.budget > 0 {
			want = min(want, c.budget)
		}
		p, err := ReplayAll(context.Background(), cfgs, c.prog, c.tr, c.budget, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range p.Stats {
			if st.Committed != want {
				t.Errorf("%s, cfg %d: committed %d, want min(Steps, budget) = %d", c.name, i, st.Committed, want)
			}
		}
	}
}

// TestReplaySharesConventionalByKey pins which engines share a pass's
// conventional predictor, and which configurations share an engine, on
// gzip, whose branches the real Table 1 table gives a row each but half
// the budget does not. A conventional engine and every predicate
// engine's shadow of the same budget share, whatever the predicate
// engine's own idealizations; so does an idealized conventional engine,
// since its table aliases gzip's branches as the real one does, and it
// shares the real one's engine too. Half the budget, which aliases
// them differently, and a shorter local history each get their own.
// PEP-PA reads none.
func TestReplaySharesConventionalByKey(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(spec)
	conv := config.Default().WithScheme(config.SchemeConventional)
	pred := config.Default().WithScheme(config.SchemePredicate)
	idealPred := pred
	idealPred.IdealNoAlias, idealPred.IdealPerfectGHR = true, true
	splitPred := pred
	splitPred.SplitPVT = true
	idealConv := conv
	idealConv.IdealNoAlias = true
	halfConv := conv
	halfConv.L2PredBytes /= 2
	halfPred := pred
	halfPred.L2PredBytes /= 2
	shortPred := pred
	shortPred.L2PredLHRBits = 6
	cfgs := []config.Config{conv, pred, idealPred, splitPred, idealConv, halfConv, halfPred, shortPred,
		config.Default().WithScheme(config.SchemePEPPA)}
	full, _ := Partitions(conv, prog)
	ideal, _ := Partitions(idealConv, prog)
	half, _ := Partitions(halfConv, prog)
	if len(full) == 0 || !slices.Equal(full, ideal) || slices.Equal(full, half) {
		t.Fatalf("gzip's %d branches: the real table must alias them as the idealized one does (%v) and half the budget differently (%v)",
			len(full), slices.Equal(full, ideal), !slices.Equal(full, half))
	}
	// The predictor each engine must read, by the index of the first
	// engine reading it; -1 for none.
	want := []int{0, 0, 0, 0, 0, 5, 5, 7, -1}
	kinds := scheme.Kinds(prog)
	engines := make([]*schemeEngine, len(cfgs))
	for i, cfg := range cfgs {
		c := EngineConfigOf(cfg)
		engines[i] = newSchemeEngine(c, keyOf(c, kinds), kinds)
	}
	if n := len(shareConventional(engines)); n != 3 {
		t.Errorf("built %d conventional predictors, want 3", n)
	}
	for i, e := range engines {
		if (e.conv == nil) != (want[i] < 0) {
			t.Errorf("cfg %d: reads a conventional predictor %v, want %v", i, e.conv != nil, want[i] >= 0)
		}
		for j := range i {
			if shared := e.conv != nil && e.conv == engines[j].conv; shared != (want[i] >= 0 && want[i] == want[j]) {
				t.Errorf("cfgs %d and %d: share a conventional predictor %v, want %v", j, i, shared, !shared)
			}
		}
	}
	// Of the whole engines, only the idealized conventional one is
	// served by another's: the idealized PVT and the split one alias
	// gzip's compare destinations differently from the shared table.
	tr, err := trace.Record(context.Background(), prog, 20000)
	if err != nil {
		t.Fatal(err)
	}
	p := checkAgainstIndependent(t, "gzip", cfgs, prog, tr, 20000)
	if want := []int{0, 1, 2, 3, 0, 5, 6, 7, 8}; !slices.Equal(p.Engine, want) {
		t.Errorf("engines by configuration %v, want %v", p.Engine, want)
	}
}

// TestReplayRejectsForeignTrace checks that a trace replays only against
// the program it was recorded from: any other program fails with
// trace.ErrCorrupt before a single event is read.
func TestReplayRejectsForeignTrace(t *testing.T) {
	vpr, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	gzip, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(vpr)
	tr, err := trace.Record(context.Background(), prog, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayAll(context.Background(), schemeCfgs(), prog, tr, 0, nil, nil); err != nil {
		t.Fatalf("own program: %v", err)
	}
	_, err = ReplayAll(context.Background(), schemeCfgs(), bench.Build(gzip), tr, 0, nil, nil)
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("vpr's trace against gzip: got %v, want an error wrapping trace.ErrCorrupt", err)
	}
}

// TestReplayRejectsEventOffSite checks that every event must land on an
// instruction of its own kind. Each program's trace is replayed against
// copies of the program (with the hash the trace carries updated to
// match) in which one instruction of each recorded kind is a nop, and
// against one cut short of the events' PCs; each replay must fail with
// trace.ErrCorrupt naming the event's PC.
func TestReplayRejectsEventOffSite(t *testing.T) {
	for _, prog := range []*program.Program{targetsProgram(), guardedCompareProgram(100)} {
		tr, err := trace.Record(context.Background(), prog, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayAll(context.Background(), schemeCfgs(), prog, tr, 0, nil, nil); err != nil {
			t.Fatalf("%s: own program: %v", prog.Name, err)
		}
		variants := map[string]*program.Program{}
		seen := map[uint8]bool{}
		for pc := range prog.Insts {
			k := trace.KindOf(prog.At(pc))
			if k == 0 || k == trace.EvHalt || seen[k] {
				continue
			}
			seen[k] = true
			v := &program.Program{Name: prog.Name, Insts: slices.Clone(prog.Insts)}
			v.Insts[pc] = isa.Inst{Op: isa.OpNop}
			variants[fmt.Sprintf("%s at pc %d as a nop", prog.At(pc).Op, pc)] = v
		}
		if len(seen) < 2 {
			t.Fatalf("%s: only %d event kinds to move off their sites", prog.Name, len(seen))
		}
		variants["cut to two instructions"] = &program.Program{Name: prog.Name, Insts: prog.Insts[:2]}
		for name, v := range variants {
			vt := *tr
			vt.ProgHash = trace.HashProgram(v)
			_, err := ReplayAll(context.Background(), schemeCfgs(), v, &vt, 0, nil, nil)
			if !errors.Is(err, trace.ErrCorrupt) || !strings.Contains(err.Error(), "at pc") {
				t.Errorf("%s, %s: got %v, want an off-site error wrapping trace.ErrCorrupt", prog.Name, name, err)
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
	prog := bench.Build(spec)
	tr, err := trace.Record(context.Background(), prog, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayAll(context.Background(), nil, prog, tr, 0, nil, nil); err == nil {
		t.Error("empty config set should fail")
	}
	bad := config.Default().WithScheme(config.SchemePredicate)
	bad.FetchWidth = 0
	if _, err := ReplayAll(context.Background(), []config.Config{bad}, prog, tr, 0, nil, nil); err == nil {
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
	prog := bench.Build(spec)
	tr, err := trace.Record(context.Background(), prog, 400000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplayAll(ctx, schemeCfgs(), prog, tr, 0, nil, nil); err == nil {
		t.Fatal("want context error from cancelled single-pass replay")
	}
}

func recordBenchTrace(b *testing.B, name string, commits uint64) (*program.Program, *trace.Trace) {
	b.Helper()
	spec, err := bench.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	prog := bench.Build(spec)
	tr, err := trace.Record(context.Background(), prog, commits+64)
	if err != nil {
		b.Fatal(err)
	}
	return prog, tr
}

// BenchmarkReplayPerScheme measures the independent per-scheme replay
// path (one full decode + frontend pass per scheme).
func BenchmarkReplayPerScheme(b *testing.B) {
	const commits = 50000
	prog, tr := recordBenchTrace(b, "vpr", commits)
	for i, sch := range replaySchemes {
		cfg := config.Default().WithScheme(sch)
		b.Run(sch.String(), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := Replay(cfg, prog, tr, commits); err != nil {
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
	prog, tr := recordBenchTrace(b, "vpr", commits)
	cfgs := schemeCfgs()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfgs))*commits*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
