package sim_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedResults is a deterministic result set covering a clean run, a
// predicate-scheme run with shadow statistics, and a failed run.
func fixedResults() []sim.Result {
	return []sim.Result{
		{
			Seq: 0, Tag: "fig5", Bench: "gzip", Class: "int", Scheme: "conventional", IfConverted: false,
			Stats: sim.Stats{
				Cycles: 50000, Committed: 60000,
				CondBranches: 10000, BranchMispred: 800,
				EarlyResolved: 0,
			},
			Mem: sim.MemStats{
				L1IAccesses: 120000, L1IMisses: 60,
				L1DAccesses: 20000, L1DMisses: 400,
				L2Accesses: 460, L2Misses: 46,
			},
		},
		{
			Seq: 1, Tag: "fig6a", Bench: "gzip", Class: "int", Scheme: "predpred", IfConverted: true,
			Stats: sim.Stats{
				Cycles: 48000, Committed: 60000,
				CondBranches: 9000, BranchMispred: 540,
				EarlyResolved: 1200, EarlyResolvedHit: 300,
				PredPredictions: 8000, PredMispredicts: 640,
				Cancelled: 700, Unguarded: 2100, SelectOps: 900,
				ShadowCondBranches: 9000, ShadowMispred: 720,
			},
			Mem: sim.MemStats{
				L1IAccesses: 118000, L1IMisses: 59,
				L1DAccesses: 21000, L1DMisses: 420,
				L2Accesses: 479, L2Misses: 47,
			},
		},
		{
			Seq: 2, Bench: "twolf", Class: "int", Scheme: "predpred", IfConverted: true,
			Err: errors.New("config: fetch width 0 / ROB 4 too small"),
		},
		{
			// A trace-mode run: no timing model and no memory hierarchy,
			// so the mem cells must stay empty rather than reading as a
			// perfect 0.0% hierarchy.
			Seq: 3, Tag: "fig6a", Bench: "vpr", Class: "int", Scheme: "predpred",
			Mode: sim.ModeTrace, IfConverted: true,
			Stats: sim.Stats{
				Committed:    60000,
				CondBranches: 8000, BranchMispred: 400,
				EarlyResolved: 1000, EarlyResolvedHit: 250,
				PredPredictions: 7000, PredMispredicts: 500,
				ShadowCondBranches: 8000, ShadowMispred: 600,
			},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestJSONSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sim.EmitAll(sim.NewJSONSink(&buf), fixedResults()); err != nil {
		t.Fatal(err)
	}
	// NDJSON: one object per line, one line per result.
	if n := strings.Count(buf.String(), "\n"); n != 4 {
		t.Errorf("expected 4 NDJSON lines, got %d", n)
	}
	checkGolden(t, "results.ndjson.golden", buf.Bytes())
}

func TestCSVSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sim.EmitAll(sim.NewCSVSink(&buf), fixedResults()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 { // header + 4 rows
		t.Errorf("expected 5 CSV lines, got %d", n)
	}
	checkGolden(t, "results.csv.golden", buf.Bytes())
}

// TestSinksOmitTraceModeMemCells pins the trace-mode contract: a run
// with no memory hierarchy serializes without miss-rate figures — the
// JSON object has no l1d/l2 keys at all and the CSV cells are empty —
// while pipeline rows keep real (even genuinely zero) figures.
func TestSinksOmitTraceModeMemCells(t *testing.T) {
	rs := fixedResults()
	var jbuf bytes.Buffer
	if err := sim.EmitAll(sim.NewJSONSink(&jbuf), rs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jbuf.String()), "\n")
	for i, line := range lines {
		isTrace := strings.Contains(line, `"mode":"trace"`)
		hasMem := strings.Contains(line, `"l1d_miss_pct"`) || strings.Contains(line, `"l2_miss_pct"`)
		if isTrace && hasMem {
			t.Errorf("JSON line %d: trace-mode run must omit miss-rate keys: %s", i, line)
		}
		if !isTrace && !hasMem {
			t.Errorf("JSON line %d: pipeline run must keep miss-rate keys: %s", i, line)
		}
	}

	var cbuf bytes.Buffer
	if err := sim.EmitAll(sim.NewCSVSink(&cbuf), rs); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(cbuf.String()), "\n")
	header := strings.Split(rows[0], ",")
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for i, row := range rows[1:] {
		cells := strings.Split(row, ",")
		isTrace := cells[col["mode"]] == "trace"
		for _, name := range []string{"l1d_miss_pct", "l2_miss_pct"} {
			got := cells[col[name]]
			if isTrace && got != "" {
				t.Errorf("CSV row %d: trace-mode %s = %q, want empty cell", i, name, got)
			}
			if !isTrace && got == "" {
				t.Errorf("CSV row %d: pipeline %s must not be empty", i, name)
			}
		}
	}
}

// fixedPointResults is a deterministic 2-axis, 2-point sweep over the
// first two fixedResults runs, in point and matrix order.
func fixedPointResults() []sim.Result {
	mk := func(idx int, entries, bits string) sim.Point {
		return sim.Point{Index: idx, Values: []sim.AxisValue{
			{Axis: "pvt.entries", Value: entries},
			{Axis: "conf.bits", Value: bits},
		}}
	}
	var out []sim.Result
	for _, pt := range []sim.Point{mk(0, "1024", "2"), mk(3, "2048", "3")} {
		for _, r := range fixedResults()[:2] {
			r.Point = pt
			out = append(out, r)
		}
	}
	return out
}

var sweepAxes = []string{"pvt.entries", "conf.bits"}

func TestSweepCSVSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sim.EmitAll(sim.NewCSVSink(&buf, sweepAxes...), fixedPointResults()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "\n"); n != 5 { // header + 2 points × 2 runs
		t.Errorf("expected 5 CSV lines, got %d:\n%s", n, out)
	}
	header := out[:strings.Index(out, "\n")]
	for _, col := range []string{"point", "axis:pvt.entries", "axis:conf.bits", "bench", "scheme", "mispredict_pct"} {
		if !strings.Contains(header, col) {
			t.Errorf("header missing column %q: %s", col, header)
		}
	}
	checkGolden(t, "sweep.csv.golden", buf.Bytes())
}

func TestSweepJSONSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sim.EmitAll(sim.NewJSONSink(&buf), fixedPointResults()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "\n"); n != 4 { // 2 points × 2 runs
		t.Errorf("expected 4 NDJSON lines, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, `"axes":{"conf.bits":"2","pvt.entries":"1024"}`) {
		t.Errorf("NDJSON should carry the axis map:\n%s", out)
	}
	checkGolden(t, "sweep.ndjson.golden", buf.Bytes())
}

// TestSortResults pins the ordering contract: parallel delivery
// shuffles cells across points and within them; sorting restores point
// order, then matrix order within each point, and the sorted stream
// renders exactly as point- and matrix-order delivery does.
func TestSortResults(t *testing.T) {
	rs := fixedPointResults()
	shuffled := []sim.Result{rs[3], rs[0], rs[2], rs[1]}
	sim.SortResults(shuffled)
	for i := range rs {
		if shuffled[i].Point.Index != rs[i].Point.Index || shuffled[i].Seq != rs[i].Seq {
			t.Fatalf("cell %d is point %d seq %d, want point %d seq %d",
				i, shuffled[i].Point.Index, shuffled[i].Seq, rs[i].Point.Index, rs[i].Seq)
		}
	}
	var want, got bytes.Buffer
	if err := sim.EmitAll(sim.NewCSVSink(&want, sweepAxes...), rs); err != nil {
		t.Fatal(err)
	}
	if err := sim.EmitAll(sim.NewCSVSink(&got, sweepAxes...), shuffled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("sorted stream should render identically:\n--- want ---\n%s\n--- got ---\n%s", want.String(), got.String())
	}
}
