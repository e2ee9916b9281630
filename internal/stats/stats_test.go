package stats

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/pipeline"
)

var (
	conv = config.SchemeConventional.String()
	pred = config.SchemePredicate.String()
)

// runMatrix simulates every prepared benchmark under every scheme —
// a small parallel test helper standing in for the repro/sim Runner
// (which this package cannot import without a cycle).
func runMatrix(t *testing.T, progs []Programs, schemes []config.Scheme, ifConverted bool,
	commits uint64, mutate func(*config.Config)) []Run {
	t.Helper()
	runs := make([]Run, 0, len(progs)*len(schemes))
	var wg sync.WaitGroup
	for _, pg := range progs {
		p := pg.Plain
		if ifConverted {
			p = pg.Converted
		}
		for _, s := range schemes {
			runs = append(runs, Run{Bench: pg.Spec.Name, Class: pg.Spec.Class, Scheme: s.String()})
			wg.Add(1)
			go func(r *Run, s config.Scheme) {
				defer wg.Done()
				cfg := config.Default().WithScheme(s)
				if mutate != nil {
					mutate(&cfg)
				}
				r.Stats, r.Err = Simulate(cfg, p, commits)
			}(&runs[len(runs)-1], s)
		}
	}
	wg.Wait()
	return runs
}

// prepareBoth builds both binary sets of every benchmark, as a run
// that reads the if-converted set does.
func prepareBoth(suite []bench.Spec, profileSteps uint64) ([]Programs, error) {
	progs, err := PrepareContext(context.Background(), suite)
	if err != nil {
		return nil, err
	}
	for i := range progs {
		if err := progs[i].Convert(context.Background(), profileSteps); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// miniSuite picks a few representative benchmarks to keep test runtime
// bounded; full-suite runs live in cmd/experiments.
func miniSuite(t *testing.T) []Programs {
	t.Helper()
	suite := []bench.Spec{}
	for _, name := range []string{"gzip", "vpr", "twolf", "swim"} {
		s, err := bench.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, s)
	}
	progs, err := prepareBoth(suite, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

func TestPrepareBuildsBothBinaries(t *testing.T) {
	progs := miniSuite(t)
	for _, pg := range progs {
		if pg.Plain == nil || pg.Converted == nil {
			t.Fatalf("%s: missing binaries", pg.Spec.Name)
		}
		before := pg.Plain.Summarize()
		after := pg.Converted.Summarize()
		if after.CondBr >= before.CondBr {
			t.Errorf("%s: if-conversion did not remove branches (%d -> %d)",
				pg.Spec.Name, before.CondBr, after.CondBr)
		}
	}
}

func TestFig5ShapeMini(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	progs := miniSuite(t)
	schemes := []config.Scheme{config.SchemeConventional, config.SchemePredicate}
	runs := runMatrix(t, progs, schemes, false, 60000, nil)
	tab, err := Tabulate("fig5-mini", []string{conv, pred}, runs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	for _, r := range tab.Rows {
		for _, s := range []string{conv, pred} {
			if r.Rate[s] <= 0 || r.Rate[s] >= 60 {
				t.Errorf("%s/%v: implausible misprediction rate %.2f%%", r.Bench, s, r.Rate[s])
			}
		}
	}
	// The headline shape: the predicate predictor should not lose on
	// average (paper: +1.86% accuracy).
	if d := tab.AccuracyDelta(pred, conv); d < -0.3 {
		t.Errorf("predicate predictor loses by %.2fpp on average", -d)
	}
}

func TestFig6ShapeMini(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	progs := miniSuite(t)
	schemes := []config.Scheme{config.SchemePEPPA, config.SchemeConventional, config.SchemePredicate}
	runs := runMatrix(t, progs, schemes, true, 60000, nil)
	tab, err := Tabulate("fig6a-mini", []string{config.SchemePEPPA.String(), conv, pred}, runs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())

	bd, err := BreakdownTable(runs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderBreakdown(bd))
	if len(bd) == 0 {
		t.Fatal("no breakdown rows")
	}
	// Early-resolved contribution must be non-negative by construction.
	for _, r := range bd {
		if r.Early < 0 {
			t.Errorf("%s: negative early-resolved contribution %v", r.Bench, r.Early)
		}
	}
}

func TestTabulateAndRender(t *testing.T) {
	schemes := []string{conv, pred}
	runs := []Run{
		{Bench: "a", Class: "int", Scheme: conv,
			Stats: pipeline.Stats{CondBranches: 100, BranchMispred: 10}},
		{Bench: "a", Class: "int", Scheme: pred,
			Stats: pipeline.Stats{CondBranches: 100, BranchMispred: 5}},
	}
	tab, err := Tabulate("t", schemes, runs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Average(conv) != 10 {
		t.Errorf("avg = %v", tab.Average(conv))
	}
	if d := tab.AccuracyDelta(pred, conv); d != 5 {
		t.Errorf("delta = %v", d)
	}
	if tab.Wins(pred) != 1 {
		t.Errorf("wins = %d", tab.Wins(pred))
	}
	out := tab.Render()
	if !strings.Contains(out, "10.00%") || !strings.Contains(out, "5.00%") {
		t.Errorf("render:\n%s", out)
	}
}

// TestTableTies pins the explicit tie handling: on an exact tie the
// "best" column says "tie", Wins counts neither scheme, and Ties
// counts both — independent of column order.
func TestTableTies(t *testing.T) {
	mk := func(bench string, rates map[string]uint64) []Run {
		var rs []Run
		for s, mis := range rates {
			rs = append(rs, Run{Bench: bench, Class: "int", Scheme: s,
				Stats: pipeline.Stats{CondBranches: 100, BranchMispred: mis}})
		}
		return rs
	}
	runs := append(mk("tied", map[string]uint64{conv: 7, pred: 7}),
		mk("won", map[string]uint64{conv: 9, pred: 4})...)

	for _, schemes := range [][]string{{conv, pred}, {pred, conv}} {
		tab, err := Tabulate("ties", schemes, runs)
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Wins(conv); got != 0 {
			t.Errorf("schemes %v: conv wins = %d, want 0 (tie must not favor the earlier column)", schemes, got)
		}
		if got := tab.Wins(pred); got != 1 {
			t.Errorf("schemes %v: pred wins = %d, want 1", schemes, got)
		}
		if got := tab.Ties(conv); got != 1 {
			t.Errorf("schemes %v: conv ties = %d, want 1", schemes, got)
		}
		if got := tab.Ties(pred); got != 1 {
			t.Errorf("schemes %v: pred ties = %d, want 1", schemes, got)
		}
		out := tab.Render()
		if !strings.Contains(out, "tie (") {
			t.Errorf("schemes %v: tied row not marked in render:\n%s", schemes, out)
		}
		best := tab.Rows[0].Best(schemes)
		if len(best) != 2 {
			t.Errorf("schemes %v: Best = %v, want both schemes", schemes, best)
		}
	}
}

// TestBestSkipsMissingSchemes pins that a scheme column with no run
// in a row (partial/cancelled result sets) is not treated as a 0%
// rate and crowned best.
func TestBestSkipsMissingSchemes(t *testing.T) {
	runs := []Run{{Bench: "a", Class: "int", Scheme: pred,
		Stats: pipeline.Stats{CondBranches: 100, BranchMispred: 7}}}
	tab, err := Tabulate("partial", []string{conv, pred}, runs)
	if err != nil {
		t.Fatal(err)
	}
	best := tab.Rows[0].Best([]string{conv, pred})
	if len(best) != 1 || best[0] != pred {
		t.Errorf("Best = %v, want [%s] (missing %s cell must not win)", best, pred, conv)
	}
	if tab.Wins(conv) != 0 {
		t.Errorf("absent scheme won %d rows", tab.Wins(conv))
	}
	if tab.Wins(pred) != 1 {
		t.Errorf("pred wins = %d, want 1", tab.Wins(pred))
	}
}

func TestSimulateMutatedConfig(t *testing.T) {
	progs := miniSuite(t)[:1]
	one := []config.Scheme{config.SchemePredicate}
	runs := runMatrix(t, progs, one, true, 40000, func(c *config.Config) {
		c.DisableGHRRepair = true
	})
	for _, r := range runs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Stats.Committed == 0 {
			t.Error("no instructions committed")
		}
	}
}

func TestSimulateErrorsOnBadConfig(t *testing.T) {
	progs := miniSuite(t)[:1]
	cfg := config.Default()
	cfg.ROBEntries = 1
	if _, err := Simulate(cfg, progs[0].Plain, 100); err == nil {
		t.Fatal("expected config validation error")
	}
}

func TestSimulateContextCancel(t *testing.T) {
	progs := miniSuite(t)[:1]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := config.Default().WithScheme(config.SchemePredicate)
	pl, err := SimulateContext(ctx, cfg, progs[0].Plain, 1<<40)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pl == nil {
		t.Fatal("expected partial pipeline state on cancellation")
	}
}

func TestBreakdownSkipsNonPredicateRuns(t *testing.T) {
	runs := []Run{{Bench: "x", Scheme: conv,
		Stats: pipeline.Stats{CondBranches: 10}}}
	bd, err := BreakdownTable(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd) != 0 {
		t.Error("conventional runs must not appear in the breakdown")
	}
}
