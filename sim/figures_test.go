package sim_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/sim"
)

// TestFiguresGolden pins the text every figure fold renders, from runs
// to report: Figure 5, Figure 6a with its Figure 6b breakdown, a
// hand-built table with an exact tie, and a two-axis sweep's best
// points and marginals, over gzip, vpr and twolf replayed for 60k
// commits. Rewrite testdata/figures.txt.golden with -update only when
// a figure is meant to change.
func TestFiguresGolden(t *testing.T) {
	wl := sim.PrepareEntries(t, 150000, "gzip", "vpr", "twolf")
	dir := t.TempDir()
	run := func(schemes []string, ifConverted bool, opts ...sim.Option) []sim.Result {
		t.Helper()
		exp, err := sim.New(append([]sim.Option{sim.WithWorkload(wl), sim.WithSchemes(schemes...),
			sim.WithCommits(60000), sim.WithMode(sim.ModeTrace), sim.WithTraceDir(dir),
			sim.WithIfConversion(ifConverted)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	var out strings.Builder
	table := func(title string, schemes []string, rs []sim.Result) {
		t.Helper()
		tab, err := sim.Tabulate(title, schemes, rs)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(tab.Render())
		fmt.Fprintf(&out, "predpred over conventional: %+.4fpp\n", tab.AccuracyDelta("predpred", "conventional"))
		for _, s := range schemes {
			fmt.Fprintf(&out, "%s: average %.4f%%, %d wins, %d ties\n", s, tab.Average(s), tab.Wins(s), tab.Ties(s))
		}
		out.WriteString("\n")
	}

	two := []string{"conventional", "predpred"}
	three := []string{"peppa", "conventional", "predpred"}
	table("Figure 5", two, run(two, false))
	fig6 := run(three, true)
	table("Figure 6a", three, fig6)
	bd, err := sim.BreakdownTable(fig6)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(sim.RenderBreakdown(bd) + "\n")

	// One row ties exactly, one is won outright.
	table("Ties", two, tiedAndWon())

	sweep := run(two, false, sim.WithAxis("pvt.entries", 256, 1024), sim.WithAxis("conf.bits", 2, 3))
	for _, s := range two {
		p, rate, err := sim.BestPoint(sweep, s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "best point for %s: %d (%s) at %.4f%%\n", s, p.Index, p, rate)
	}
	for _, axis := range []string{"pvt.entries", "conf.bits"} {
		rows, err := sim.MarginalTable(sweep, axis, two)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString("\n" + sim.RenderMarginals(axis, two, rows))
	}
	checkGolden(t, "figures.txt.golden", []byte(out.String()))
}

// mispredicting is a hand-built run of 100 conditional branches, of
// which mispred mispredicted.
func mispredicting(bench, scheme string, mispred uint64) sim.Result {
	return sim.Result{Bench: bench, Class: "int", Scheme: scheme,
		Stats: sim.Stats{CondBranches: 100, BranchMispred: mispred}}
}

// tiedAndWon is a conventional/predpred table whose first row ties
// exactly and whose second predpred wins.
func tiedAndWon() []sim.Result {
	return []sim.Result{
		mispredicting("tied", "conventional", 7), mispredicting("tied", "predpred", 7),
		mispredicting("won", "conventional", 9), mispredicting("won", "predpred", 4),
	}
}

func TestTabulateAndRender(t *testing.T) {
	tab, err := sim.Tabulate("t", []string{"conventional", "predpred"}, []sim.Result{
		mispredicting("a", "conventional", 10), mispredicting("a", "predpred", 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Average("conventional") != 10 {
		t.Errorf("avg = %v", tab.Average("conventional"))
	}
	if d := tab.AccuracyDelta("predpred", "conventional"); d != 5 {
		t.Errorf("delta = %v", d)
	}
	if tab.Wins("predpred") != 1 {
		t.Errorf("wins = %d", tab.Wins("predpred"))
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
	for _, schemes := range [][]string{{"conventional", "predpred"}, {"predpred", "conventional"}} {
		tab, err := sim.Tabulate("ties", schemes, tiedAndWon())
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Wins("conventional"); got != 0 {
			t.Errorf("schemes %v: conventional wins = %d, want 0 (tie must not favor the earlier column)", schemes, got)
		}
		if got := tab.Wins("predpred"); got != 1 {
			t.Errorf("schemes %v: predpred wins = %d, want 1", schemes, got)
		}
		if got := tab.Ties("conventional"); got != 1 {
			t.Errorf("schemes %v: conventional ties = %d, want 1", schemes, got)
		}
		if got := tab.Ties("predpred"); got != 1 {
			t.Errorf("schemes %v: predpred ties = %d, want 1", schemes, got)
		}
		if out := tab.Render(); !strings.Contains(out, "tie (") {
			t.Errorf("schemes %v: tied row not marked in render:\n%s", schemes, out)
		}
		if best := tab.Rows[0].Best(schemes); len(best) != 2 {
			t.Errorf("schemes %v: Best = %v, want both schemes", schemes, best)
		}
	}
}

// TestBestSkipsMissingSchemes pins that a scheme column with no run in
// a row (partial or cancelled result sets) is neither crowned best as
// a 0% rate nor averaged in as one.
func TestBestSkipsMissingSchemes(t *testing.T) {
	schemes := []string{"conventional", "predpred"}
	tab, err := sim.Tabulate("partial", schemes, []sim.Result{
		mispredicting("a", "predpred", 7),
		mispredicting("b", "conventional", 9), mispredicting("b", "predpred", 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if best := tab.Rows[0].Best(schemes); len(best) != 1 || best[0] != "predpred" {
		t.Errorf("Best = %v, want [predpred] (the missing conventional cell must not win)", best)
	}
	if got := tab.Wins("conventional"); got != 0 {
		t.Errorf("absent scheme won %d rows", got)
	}
	if got := tab.Wins("predpred"); got != 2 {
		t.Errorf("predpred wins = %d, want 2", got)
	}
	if got := tab.Average("conventional"); got != 9 {
		t.Errorf("conventional average = %v, want 9 (the one row that ran it)", got)
	}
}

func TestBreakdownSkipsNonPredicateRuns(t *testing.T) {
	bd, err := sim.BreakdownTable([]sim.Result{mispredicting("x", "conventional", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(bd) != 0 {
		t.Error("conventional runs must not appear in the breakdown")
	}
}

// TestFoldsRejectSeveralPoints pins that a figure is one sweep point's:
// Tabulate and BreakdownTable key rows by benchmark, so results from
// two points must fail, naming both, instead of the later point's runs
// replacing the earlier's.
func TestFoldsRejectSeveralPoints(t *testing.T) {
	rs := tiedAndWon()
	for i := range rs {
		rs[i].Stats.ShadowCondBranches = 100
		if i >= 2 {
			rs[i].Point = sim.Point{Index: 1, Values: []sim.AxisValue{{Axis: "conf.bits", Value: "3"}}}
			rs[i].Bench = "tied"
		}
	}
	_, err := sim.Tabulate("two points", []string{"conventional", "predpred"}, rs)
	_, bdErr := sim.BreakdownTable(rs)
	for _, err := range []error{err, bdErr} {
		if err == nil || !containsAll(err.Error(), "points 0", "1 (conf.bits=3)", "one point at a time") {
			t.Errorf("folding two points: err = %v, want one naming points 0 and 1", err)
		}
	}
	if _, err := sim.Tabulate("one point", []string{"predpred"}, rs[2:]); err != nil {
		t.Errorf("one point's results: %v", err)
	}
}

// miniWorkload prepares gzip, vpr, twolf and swim for the figure-shape
// checks; full-suite runs live in cmd/experiments.
func miniWorkload(t *testing.T) *sim.Workload {
	return sim.PrepareEntries(t, 100000, "gzip", "vpr", "twolf", "swim")
}

// runMini runs the mini workload's matrix on the cycle model for 60k
// commits.
func runMini(t *testing.T, schemes []string, ifConverted bool) []sim.Result {
	t.Helper()
	exp, err := sim.New(sim.WithWorkload(miniWorkload(t)), sim.WithSchemes(schemes...),
		sim.WithCommits(60000), sim.WithIfConversion(ifConverted))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestFig5ShapeMini(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	two := []string{"conventional", "predpred"}
	tab, err := sim.Tabulate("fig5-mini", two, runMini(t, two, false))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())
	for _, r := range tab.Rows {
		for _, s := range two {
			if r.Rate[s] <= 0 || r.Rate[s] >= 60 {
				t.Errorf("%s/%v: implausible misprediction rate %.2f%%", r.Bench, s, r.Rate[s])
			}
		}
	}
	// The headline shape: the predicate predictor should not lose on
	// average (paper: +1.86% accuracy).
	if d := tab.AccuracyDelta("predpred", "conventional"); d < -0.3 {
		t.Errorf("predicate predictor loses by %.2fpp on average", -d)
	}
}

func TestFig6ShapeMini(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	three := []string{"peppa", "conventional", "predpred"}
	rs := runMini(t, three, true)
	tab, err := sim.Tabulate("fig6a-mini", three, rs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab.Render())

	bd, err := sim.BreakdownTable(rs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", sim.RenderBreakdown(bd))
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
