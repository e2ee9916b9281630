package sim_test

import (
	"bytes"
	"context"
	"testing"

	"repro/sim"
)

// sweepEmission runs a small multi-scheme, multi-point sweep end to
// end — parallel workers, trace replay, aggregation — and returns the
// exact bytes the CSV and NDJSON sinks emit.
func sweepEmission(t *testing.T, dir string) (csv, ndjson []byte) {
	t.Helper()
	exp := sweepExperiment(t, dir, []string{"conventional", "predpred"},
		sim.WithAxis("pvt.entries", 256, 1024),
		sim.WithAxis("conf.bits", 2),
	)
	results, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, jsonBuf bytes.Buffer
	if err := sim.EmitAll(sim.NewCSVSink(&csvBuf, exp.AxisNames()...), results); err != nil {
		t.Fatal(err)
	}
	if err := sim.EmitAll(sim.NewJSONSink(&jsonBuf), results); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), jsonBuf.Bytes()
}

// TestSweepEmissionByteIdentical is the determinism contract the
// detorder analyzer exists to protect: two identical sweeps — same
// specs, same seeds, same knobs, concurrent workers and all — must
// produce byte-identical CSV and NDJSON streams. Any map-iteration
// order leaking into the emitters, any unseeded randomness, any
// worker-scheduling dependence shows up here as a diff.
func TestSweepEmissionByteIdentical(t *testing.T) {
	dir := t.TempDir() // shared trace dir: second run exercises the cached-trace path too
	csv1, json1 := sweepEmission(t, dir)
	csv2, json2 := sweepEmission(t, dir)
	if len(csv1) == 0 || len(json1) == 0 {
		t.Fatal("sweep emitted no output")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("CSV output differs between identical runs:\nrun1:\n%s\nrun2:\n%s", csv1, csv2)
	}
	if !bytes.Equal(json1, json2) {
		t.Errorf("NDJSON output differs between identical runs:\nrun1:\n%s\nrun2:\n%s", json1, json2)
	}
}

// experimentEmission runs the trace-mode gzip+vpr 3-scheme experiment
// on a cell-worker pool of the given size and returns the exact bytes
// its JSON and CSV result sinks emit. No observer is attached: with
// more than one worker, fake-clock span values depend on interleaving.
func experimentEmission(t *testing.T, dir string, workers int) (json, csv []byte) {
	t.Helper()
	wl := sim.PrepareEntries(t, 50000, "gzip", "vpr")
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("conventional", "predpred", "peppa"),
		sim.WithCommits(60000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(dir),
		sim.WithParallelism(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf, csvBuf bytes.Buffer
	if err := sim.EmitAll(sim.NewJSONSink(&jsonBuf), rs); err != nil {
		t.Fatal(err)
	}
	if err := sim.EmitAll(sim.NewCSVSink(&csvBuf), rs); err != nil {
		t.Fatal(err)
	}
	return jsonBuf.Bytes(), csvBuf.Bytes()
}

// TestParallelReplayByteIdenticalAcrossWorkerCounts is the determinism
// contract for the runner's cell-worker pool, which replays trace-mode
// cells in parallel: the JSON and CSV result sink bytes must not depend
// on how many workers ran the cells. CI runs this leg under
// GOMAXPROCS=1 as well.
func TestParallelReplayByteIdenticalAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir() // shared trace dir: the second run replays cached traces
	json1, csv1 := experimentEmission(t, dir, 1)
	json4, csv4 := experimentEmission(t, dir, 4)
	if len(json1) == 0 || len(csv1) == 0 {
		t.Fatal("experiment emitted no output")
	}
	if !bytes.Equal(json1, json4) {
		t.Errorf("JSON sink bytes depend on worker count:\n1 worker:\n%s\n4 workers:\n%s", json1, json4)
	}
	if !bytes.Equal(csv1, csv4) {
		t.Errorf("CSV sink bytes depend on worker count:\n1 worker:\n%s\n4 workers:\n%s", csv1, csv4)
	}
}
