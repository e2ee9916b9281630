package sim_test

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/sim"
)

// processCounter reads one counter of the process-wide metrics registry,
// where the trace subsystem counts its recordings and cache hits.
func processCounter(name string) uint64 {
	return sim.ProcessMetrics().CounterValue(name)
}

// TestTraceModeExperiment runs a small matrix once in each mode and
// checks the mode plumbing end to end: per-mode results, plausible
// trace statistics, empty memory counters in trace mode, and agreement
// between the modes on the committed stream.
func TestTraceModeExperiment(t *testing.T) {
	wl := sim.PrepareEntries(t, 60000, "gzip", "vpr")
	dir := t.TempDir()
	run := func(m sim.Mode) []sim.Result {
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithSchemes("conventional", "predpred"),
			sim.WithCommits(60000),
			sim.WithMode(m),
			sim.WithTraceDir(dir),
		)
		if err != nil {
			t.Fatal(err)
		}
		results, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Mode != m {
				t.Errorf("%s/%s: Mode = %v in a %v experiment", r.Bench, r.Scheme, r.Mode, m)
			}
		}
		return results
	}
	pipe := run(sim.ModePipeline)
	tr := run(sim.ModeTrace)
	if len(pipe) != 4 || len(tr) != 4 {
		t.Fatalf("want 4 results per mode (2 bench × 2 schemes), got %d pipeline, %d trace", len(pipe), len(tr))
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
// experiment over the same workload and budget replays the trace the
// workload holds, acquiring nothing, and an experiment on a fresh
// workload over the same directory replays entirely from the on-disk
// cache, with no re-emulation.
func TestTraceDiskCache(t *testing.T) {
	dir := t.TempDir()
	wl := sim.PrepareEntries(t, 50000, "twolf")
	run := func(wl *sim.Workload, commits uint64) {
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithSchemes("predpred"),
			sim.WithCommits(commits),
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
	run(wl, 20000)
	afterFirst := processCounter("trace.recordings")
	if afterFirst != before+1 {
		t.Fatalf("first run should record exactly once: %d -> %d", before, afterFirst)
	}
	hits := processCounter("trace.cache.hits")
	run(wl, 20000)
	if got := processCounter("trace.recordings"); got != afterFirst {
		t.Fatalf("second run must reuse the workload's trace, but recorded %d more times", got-afterFirst)
	}
	if got := processCounter("trace.cache.hits"); got != hits {
		t.Fatalf("second run must reuse the workload's trace, but read the disk cache %d times", got-hits)
	}
	run(sim.PrepareEntries(t, 50000, "twolf"), 20000)
	if got := processCounter("trace.recordings"); got != afterFirst {
		t.Fatalf("a fresh workload's run must hit the disk cache, but recorded %d more times", got-afterFirst)
	}
	if got := processCounter("trace.cache.hits"); got != hits+1 {
		t.Fatalf("a fresh workload's run should load the trace from disk once, got %d hits", got-hits)
	}

	// A larger budget invalidates the cached trace (it no longer covers
	// the run) and re-records.
	run(wl, 40000)
	if got := processCounter("trace.recordings"); got != afterFirst+1 {
		t.Fatalf("larger budget should re-record once, got %d extra", got-afterFirst)
	}
}

func TestPrepareWorkloadContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs, err := sim.SuiteSpecs("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.PrepareSpecsContext(ctx, specs, 50000); err == nil {
		t.Fatal("want context error from cancelled preparation")
	}
}

// TestWorkloadNamesReportMembership checks the membership test
// cmd/experiments' ablations pick their subset with: Names lists the
// prepared benchmarks and nothing else, Subset still rejects an unknown
// name and a repeated one, and neither converts a binary.
func TestWorkloadNamesReportMembership(t *testing.T) {
	before := processCounter("prepare.conversions")
	wl := sim.PrepareEntries(t, 60000, "gzip")
	if names := wl.Names(); !slices.Contains(names, "gzip") || slices.Contains(names, "nosuch") {
		t.Fatalf("Names() = %v; want gzip and no unknown name", names)
	}
	if _, err := wl.Subset("nosuch"); err == nil {
		t.Fatal("Subset should still error for unknown names")
	}
	if _, err := wl.Subset("gzip", "gzip"); err == nil || !strings.Contains(err.Error(), `"gzip"`) {
		t.Fatalf("Subset(gzip, gzip) = %v; want an error naming the repeated benchmark", err)
	}
	if _, err := wl.Subset("gzip"); err != nil {
		t.Fatal(err)
	}
	if n := processCounter("prepare.conversions") - before; n != 0 {
		t.Fatalf("preparing, listing and subsetting converted %d benchmarks, want 0", n)
	}
}

// programWorkload prepares programs as a workload, failing t on error.
func programWorkload(t *testing.T, progs ...*sim.Program) *sim.Workload {
	t.Helper()
	wl, err := sim.PreparePrograms(progs)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// runOne runs a one-cell experiment and returns its result, failing t
// on a run error but not on the cell's own Err.
func runOne(t *testing.T, opts ...sim.Option) sim.Result {
	t.Helper()
	exp, err := sim.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("one-cell experiment gave %d results", len(rs))
	}
	return rs[0]
}

// TestProgramWorkloadTraceMode checks a program workload's trace path,
// the one cmd/predsim -mode trace takes.
func TestProgramWorkloadTraceMode(t *testing.T) {
	prog, err := sim.BuildBenchmark("swim")
	if err != nil {
		t.Fatal(err)
	}
	res := runOne(t,
		sim.WithWorkload(programWorkload(t, prog)),
		sim.WithSchemes("predpred"),
		sim.WithCommits(20000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(t.TempDir()),
	)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mode != sim.ModeTrace || res.Bench != "swim" || res.Class != "" {
		t.Fatalf("identity: mode %v, bench %q, class %q", res.Mode, res.Bench, res.Class)
	}
	if res.Stats.CondBranches == 0 || res.Stats.PredPredictions == 0 {
		t.Fatalf("implausible trace stats: %+v", res.Stats)
	}
	if res.Stats.Cycles != 0 {
		t.Fatal("trace mode must not report cycles")
	}
}

// TestProgramWorkloadMatchesSpecWorkload checks that a benchmark
// entering as a program runs as it does entering as a spec: on vpr,
// plain and if-converted, in pipeline and trace mode, the program
// workload's cell has the Stats and Mem of the spec workload's. In
// trace mode against one cache directory the second run records
// nothing, whichever runs first: a trace is keyed by its binary alone.
func TestProgramWorkloadMatchesSpecWorkload(t *testing.T) {
	const commits, profile = 60000, 60000
	specs := sim.PrepareEntries(t, profile, "vpr")
	plain, err := sim.BuildBenchmark("vpr")
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sim.IfConvert(plain, sim.DefaultIfConvertOptions(sim.ProfileProgram(plain, profile)))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name        string
		ifConverted bool
		prog        *sim.Program
	}{{"plain", false, plain}, {"ifconverted", true, conv.Prog}} {
		progs := programWorkload(t, v.prog)
		for _, mode := range []sim.Mode{sim.ModePipeline, sim.ModeTrace} {
			t.Run(v.name+"/"+mode.String(), func(t *testing.T) {
				dir := t.TempDir()
				run := func(wl *sim.Workload, ifConverted bool) func() sim.Result {
					return func() sim.Result {
						res := runOne(t,
							sim.WithWorkload(wl),
							sim.WithSchemes("predpred"),
							sim.WithIfConversion(ifConverted),
							sim.WithCommits(commits),
							sim.WithMode(mode),
							sim.WithTraceDir(dir),
						)
						if res.Err != nil {
							t.Fatal(res.Err)
						}
						return res
					}
				}
				first, second := run(specs, v.ifConverted), run(progs, false)
				if v.ifConverted { // the other order: the program workload records
					first, second = second, first
				}
				a := first()
				recs := processCounter("trace.recordings")
				b := second()
				if d := processCounter("trace.recordings") - recs; mode == sim.ModeTrace && d != 0 {
					t.Errorf("second workload recorded %d traces; the first one's trace should serve it", d)
				}
				if !reflect.DeepEqual(a.Stats, b.Stats) {
					t.Errorf("Stats differ between the workloads:\n%+v\n%+v", a.Stats, b.Stats)
				}
				if a.Mem != b.Mem {
					t.Errorf("Mem differs between the workloads: %+v vs %+v", a.Mem, b.Mem)
				}
				if a.Stats.Committed < commits {
					t.Errorf("implausible run: %+v", a.Stats)
				}
			})
		}
	}
}

// TestProgramWorkloadManifests pins the manifests of a trace-mode
// one-cell experiment over a program workload: an observed run emits
// exactly one manifest, with the cell's identity (no class and no spec
// hash: a program has no spec) and the timings of a lone replay pass,
// and leaves the statistics unchanged; a run whose configuration fails
// validation keeps its identity and emits its error manifest.
// Multi-scheme replays are pinned against one-scheme replays by
// TestReplayAllMatchesIndependentReplays and the memo tests.
func TestProgramWorkloadManifests(t *testing.T) {
	prog, err := sim.BuildBenchmark("vpr")
	if err != nil {
		t.Fatal(err)
	}
	wl := programWorkload(t, prog)
	dir := t.TempDir()
	pvt512 := func(c *sim.Config) {
		// 512 PVT rows: the pvt.entries knob's byte budget.
		c.L2PredBytes = 512 * (int(c.L2PredGHRBits+c.L2PredLHRBits) + 1)
	}
	run := func(mutate func(*sim.Config), o *sim.Observer) sim.Result {
		opts := []sim.Option{
			sim.WithWorkload(wl), sim.WithSchemes("predpred"), sim.WithCommits(60000),
			sim.WithMode(sim.ModeTrace), sim.WithTraceDir(dir), sim.WithConfigMutator(mutate),
		}
		if o != nil {
			opts = append(opts, sim.WithObserver(o))
		}
		return runOne(t, opts...)
	}
	want := run(pvt512, nil) // records the trace
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	// Observed, on a fake clock ticking once per read: decode, frontend
	// and engine one tick per batch each, no group.
	var clock int64
	o := sim.NewObserverWithClock(func() int64 { clock++; return clock })
	got := run(pvt512, o)
	if got.Err != nil {
		t.Fatal(got.Err)
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
	// The cache field is how the workload obtained its binary's trace:
	// the first run recorded it, and the workload still holds it.
	wantM := sim.RunManifest{
		Seq: 0, Point: -1, Bench: prog.Name, Scheme: "predpred", Mode: "trace",
		Committed: want.Stats.Committed, Cache: "record",
		PhasesNS:     map[string]int64{sim.PhaseDecode: b, sim.PhaseFrontend: b, sim.PhaseEngine: b},
		InstrsPerSec: ips,
	}
	if !reflect.DeepEqual(single, wantM) {
		t.Errorf("one-scheme manifest:\n got: %+v\nwant: %+v", single, wantM)
	}

	// A run that fails still emits its manifest, carrying the error,
	// and keeps its identity. Validation rejects the configuration
	// before any replay, so no phase ran.
	clock = 0
	o = sim.NewObserverWithClock(func() int64 { clock++; return clock })
	res := run(func(c *sim.Config) { pvt512(c); c.FetchWidth = 0 }, o)
	if res.Err == nil {
		t.Fatal("an invalid configuration should fail the replay")
	}
	if res.Bench != prog.Name || res.Scheme != "predpred" || res.Mode != sim.ModeTrace {
		t.Errorf("failed run lost its identity: %+v", res)
	}
	wantM = sim.RunManifest{
		Seq: 0, Point: -1, Bench: prog.Name, Scheme: "predpred", Mode: "trace",
		Cache: "record", Err: res.Err.Error(),
	}
	if ms := o.Manifests(); len(ms) != 1 || !reflect.DeepEqual(ms[0], wantM) {
		t.Errorf("failed run manifests:\n got: %+v\nwant: [%+v]", ms, wantM)
	}
}
