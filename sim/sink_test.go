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
