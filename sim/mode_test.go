package sim_test

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"repro/sim"
)

// processCounter reads one counter of the process-wide metrics registry,
// where the trace subsystem counts its recordings and cache hits.
func processCounter(name string) uint64 {
	return sim.ProcessMetrics().CounterValue(name)
}

// TestTraceModeExperiment runs a small matrix in both modes and checks
// the mode plumbing end to end: per-mode results, plausible trace
// statistics, empty memory counters in trace mode, and agreement
// between the modes on the committed stream.
func TestTraceModeExperiment(t *testing.T) {
	wl, err := sim.PrepareWorkload([]string{"gzip", "vpr"}, 60000)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("conventional", "predpred"),
		sim.WithCommits(60000),
		sim.WithMode(sim.ModePipeline|sim.ModeTrace),
		sim.WithTraceDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*2*2 {
		t.Fatalf("want 8 results (2 bench × 2 modes × 2 schemes), got %d", len(results))
	}
	pipe := sim.FilterMode(results, sim.ModePipeline)
	tr := sim.FilterMode(results, sim.ModeTrace)
	if len(pipe) != 4 || len(tr) != 4 {
		t.Fatalf("mode split: %d pipeline, %d trace", len(pipe), len(tr))
	}
	for i := range tr {
		r := tr[i]
		if r.Err != nil {
			t.Fatalf("%s/%s trace run failed: %v", r.Bench, r.Scheme, r.Err)
		}
		if r.Stats.CondBranches == 0 || r.Stats.Committed < 59000 {
			t.Errorf("%s/%s: implausible trace stats %+v", r.Bench, r.Scheme, r.Stats)
		}
		if r.Stats.Cycles != 0 || r.Mem != (sim.MemStats{}) {
			t.Errorf("%s/%s: trace mode must not invent timing/memory state", r.Bench, r.Scheme)
		}
		// Same benchmark, same scheme, same committed stream: branch
		// counts agree with the pipeline run to the commit overshoot.
		p := pipe[i]
		if p.Bench != r.Bench || p.Scheme != r.Scheme {
			t.Fatalf("matrix order mismatch: %v vs %v", p, r)
		}
		d := int64(p.Stats.CondBranches) - int64(r.Stats.CondBranches)
		if d < -8 || d > 8 {
			t.Errorf("%s/%s: cond branches diverge: pipeline %d, trace %d",
				r.Bench, r.Scheme, p.Stats.CondBranches, r.Stats.CondBranches)
		}
	}
	// Both modes keep the paper's headline on this subset.
	for _, rs := range [][]sim.Result{pipe, tr} {
		tab, err := sim.Tabulate("check", []string{"conventional", "predpred"}, rs)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Average("predpred") >= tab.Average("conventional") {
			t.Errorf("predpred should beat conventional on this subset: %+v", tab)
		}
	}
}

// TestTraceDiskCache proves the record-once property: a second
// experiment over the same workload and budget replays entirely from
// the on-disk cache, with no re-emulation.
func TestTraceDiskCache(t *testing.T) {
	dir := t.TempDir()
	wl, err := sim.PrepareWorkload([]string{"twolf"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithSchemes("predpred"),
			sim.WithCommits(20000),
			sim.WithMode(sim.ModeTrace),
			sim.WithTraceDir(dir),
		)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Err != nil {
			t.Fatalf("unexpected results: %+v", rs)
		}
	}
	before := processCounter("trace.recordings")
	run()
	afterFirst := processCounter("trace.recordings")
	if afterFirst != before+1 {
		t.Fatalf("first run should record exactly once: %d -> %d", before, afterFirst)
	}
	run()
	if got := processCounter("trace.recordings"); got != afterFirst {
		t.Fatalf("second run must hit the disk cache, but recorded %d more times", got-afterFirst)
	}

	// A larger budget invalidates the cached trace (it no longer covers
	// the run) and re-records.
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("predpred"),
		sim.WithCommits(40000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := processCounter("trace.recordings"); got != afterFirst+1 {
		t.Fatalf("larger budget should re-record once, got %d extra", got-afterFirst)
	}
}

func TestPrepareWorkloadContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.PrepareWorkloadContext(ctx, []string{"gzip"}, 50000); err == nil {
		t.Fatal("want context error from cancelled preparation")
	}
}

func TestWorkloadRegionsReportsMembership(t *testing.T) {
	wl, err := sim.PrepareWorkload([]string{"gzip"}, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := wl.Regions("gzip"); !ok || n <= 0 {
		t.Fatalf("gzip should be present with converted regions, got %d, %v", n, ok)
	}
	if _, ok := wl.Regions("nosuch"); ok {
		t.Fatal("unknown benchmark must report ok=false, matching Subset's error behaviour")
	}
	if _, err := wl.Subset("nosuch"); err == nil {
		t.Fatal("Subset should still error for unknown names")
	}
}

// TestSimulateProgramTraceMode checks the single-program trace path
// used by cmd/predsim.
func TestSimulateProgramTraceMode(t *testing.T) {
	prog, err := sim.BuildBenchmark("swim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateProgram(context.Background(), sim.ProgramRun{
		Program:  prog,
		Scheme:   "predpred",
		Commits:  20000,
		Mode:     sim.ModeTrace,
		TraceDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != sim.ModeTrace {
		t.Fatalf("mode = %v", res.Mode)
	}
	if res.Stats.CondBranches == 0 || res.Stats.PredPredictions == 0 {
		t.Fatalf("implausible trace stats: %+v", res.Stats)
	}
	if res.Mode == sim.ModeTrace && res.Stats.Cycles != 0 {
		t.Fatal("trace mode must not report cycles")
	}
}

// TestSimulateProgramMatchesExperimentCell proves SimulateProgram is a
// one-cell experiment: on a suite binary, plain and if-converted, in
// pipeline and trace mode, it returns the Stats and Mem of the matching
// Experiment cell. In trace mode against one cache directory the
// second entry point records nothing, whichever runs first: a trace is
// keyed by its binary alone.
func TestSimulateProgramMatchesExperimentCell(t *testing.T) {
	const commits, profile = 60000, 60000
	wl, err := sim.PrepareWorkload([]string{"vpr"}, profile)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sim.BuildBenchmark("vpr")
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sim.IfConvert(plain, sim.DefaultIfConvertOptions(sim.ProfileProgram(plain, profile)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, v := range []struct {
		name        string
		ifConverted bool
		prog        *sim.Program
	}{{"plain", false, plain}, {"ifconverted", true, conv.Prog}} {
		for _, mode := range []sim.Mode{sim.ModePipeline, sim.ModeTrace} {
			t.Run(v.name+"/"+mode.String(), func(t *testing.T) {
				dir := t.TempDir()
				experiment := func() sim.Result {
					exp, err := sim.New(
						sim.WithWorkload(wl),
						sim.WithSchemes("predpred"),
						sim.WithIfConversion(v.ifConverted),
						sim.WithCommits(commits),
						sim.WithMode(mode),
						sim.WithTraceDir(dir),
					)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := exp.Run(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if len(rs) != 1 || rs[0].Err != nil {
						t.Fatalf("experiment results: %+v", rs)
					}
					return rs[0]
				}
				program := func() sim.Result {
					res, err := sim.SimulateProgram(ctx, sim.ProgramRun{
						Program: v.prog, Scheme: "predpred", Commits: commits,
						Mode: mode, TraceDir: dir,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res.Result
				}
				first, second := experiment, program
				if v.ifConverted { // the other order: the program run records
					first, second = program, experiment
				}
				a := first()
				recs := processCounter("trace.recordings")
				b := second()
				if d := processCounter("trace.recordings") - recs; mode == sim.ModeTrace && d != 0 {
					t.Errorf("second entry point recorded %d traces; the first one's trace should serve it", d)
				}
				if !reflect.DeepEqual(a.Stats, b.Stats) {
					t.Errorf("Stats differ between the entry points:\n%+v\n%+v", a.Stats, b.Stats)
				}
				if a.Mem != b.Mem {
					t.Errorf("Mem differs between the entry points: %+v vs %+v", a.Mem, b.Mem)
				}
				if a.Stats.Committed < commits {
					t.Errorf("implausible run: %+v", a.Stats)
				}
			})
		}
	}
}

// TestSimulateProgramSchemesMatchesSeparate pins the manifests of a
// trace-mode SimulateProgram, a one-cell experiment: an observed run
// emits exactly one manifest, with the cell's identity and the timings
// of a lone replay pass, and leaves the statistics unchanged; a run
// whose configuration fails validation keeps its identity and emits its
// error manifest. Multi-scheme replays are pinned against one-scheme
// replays by TestReplayAllMatchesIndependentReplays and the memo tests.
func TestSimulateProgramSchemesMatchesSeparate(t *testing.T) {
	prog, err := sim.BuildBenchmark("vpr")
	if err != nil {
		t.Fatal(err)
	}
	run := sim.ProgramRun{
		Program:  prog,
		Scheme:   "predpred",
		Commits:  60000,
		Mode:     sim.ModeTrace,
		TraceDir: t.TempDir(),
		Mutate: func(c *sim.Config) {
			// 512 PVT rows: the pvt.entries knob's byte budget.
			c.L2PredBytes = 512 * (int(c.L2PredGHRBits+c.L2PredLHRBits) + 1)
		},
	}
	want, err := sim.SimulateProgram(context.Background(), run) // records the trace
	if err != nil {
		t.Fatal(err)
	}

	// Observed, on a fake clock ticking once per read: decode, frontend
	// and engine one tick per batch each, no group.
	var clock int64
	o := sim.NewObserverWithClock(func() int64 { clock++; return clock })
	one := run
	one.Observer = o
	got, err := sim.SimulateProgram(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("observing changed the stats:\nobserved:   %+v\nunobserved: %+v", got.Stats, want.Stats)
	}
	ms := o.Manifests()
	if len(ms) != 1 {
		t.Fatalf("one-scheme run emitted %d manifests, want 1", len(ms))
	}
	single := ms[0]
	b := single.PhasesNS[sim.PhaseDecode]
	if b <= 0 {
		t.Fatalf("observed replay recorded no decode time: %+v", single)
	}
	ips, err := strconv.ParseFloat(strconv.FormatFloat(float64(single.Committed)/(float64(3*b)/1e9), 'f', 3, 64), 64)
	if err != nil {
		t.Fatal(err)
	}
	wantM := sim.RunManifest{
		Seq: 0, Point: -1, Bench: prog.Name, Scheme: "predpred", Mode: "trace",
		Committed: want.Stats.Committed, Cache: "hit",
		PhasesNS:     map[string]int64{sim.PhaseDecode: b, sim.PhaseFrontend: b, sim.PhaseEngine: b},
		InstrsPerSec: ips,
	}
	if !reflect.DeepEqual(single, wantM) {
		t.Errorf("one-scheme manifest:\n got: %+v\nwant: %+v", single, wantM)
	}

	// A run that fails still emits its manifest, carrying the error,
	// and returns the run's identity. Validation rejects the
	// configuration before any replay, so no phase ran.
	clock = 0
	o = sim.NewObserverWithClock(func() int64 { clock++; return clock })
	bad := run
	bad.Observer = o
	bad.Mutate = func(c *sim.Config) { c.FetchWidth = 0 }
	res, err := sim.SimulateProgram(context.Background(), bad)
	if err == nil {
		t.Fatal("an invalid configuration should fail the replay")
	}
	if res.Bench != prog.Name || res.Scheme != "predpred" || res.Mode != sim.ModeTrace || res.Err != err {
		t.Errorf("failed run lost its identity: %+v", res.Result)
	}
	wantM = sim.RunManifest{
		Seq: 0, Point: -1, Bench: prog.Name, Scheme: "predpred", Mode: "trace",
		Cache: "hit", Err: err.Error(),
	}
	if ms := o.Manifests(); len(ms) != 1 || !reflect.DeepEqual(ms[0], wantM) {
		t.Errorf("failed run manifests:\n got: %+v\nwant: [%+v]", ms, wantM)
	}
}
