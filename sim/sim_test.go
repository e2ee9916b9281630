package sim_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/sim"
)

// testWorkload prepares a tiny one-benchmark workload once; profiling
// dominates test runtime, so every test shares it.
var testWorkload = func() func(t *testing.T) *sim.Workload {
	var wl *sim.Workload
	return func(t *testing.T) *sim.Workload {
		t.Helper()
		if wl == nil {
			wl = sim.PrepareEntries(t, 30000, "gzip")
		}
		return wl
	}
}()

func TestNewValidatesOptions(t *testing.T) {
	wl := sim.WithWorkload(testWorkload(t))
	if _, err := sim.New(wl); err == nil {
		t.Error("New with no schemes must fail")
	}
	_, err := sim.New(wl, sim.WithSchemes("predpred", "no-such-scheme"))
	requireLookupError(t, err, "no-such-scheme", sim.SchemeNames())
	if _, err := sim.New(wl, sim.WithSchemes("predpred"), sim.WithParallelism(-1)); err == nil {
		t.Error("negative parallelism must fail")
	}
	if _, err := sim.New(sim.WithSchemes("predpred"), sim.WithWorkload(nil)); err == nil {
		t.Error("nil workload must fail")
	}
	// An experiment runs a prepared workload; without one, New names
	// the option that supplies it.
	if _, err := sim.New(sim.WithSchemes("predpred")); err == nil || !strings.Contains(err.Error(), "WithWorkload") {
		t.Errorf("New without a workload: error = %v, want one naming WithWorkload", err)
	}
	if _, err := sim.New(wl, sim.WithSchemes("conventional", "predpred")); err != nil {
		t.Errorf("valid experiment rejected: %v", err)
	}
}

// requireLookupError fails unless err rejects the unknown name bad and
// lists every valid name: nothing checks a literal scheme, knob,
// benchmark or suite entry before run time, so the lookup's error is
// what a caller has to fix a typo from.
func requireLookupError(t *testing.T, err error, bad string, valid []string) {
	t.Helper()
	if err == nil {
		t.Fatalf("lookup of %q: no error", bad)
	}
	for _, want := range append([]string{bad}, valid...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("lookup error %q does not mention %q", err, want)
		}
	}
}

// TestSchemeTable checks the fixed scheme table: unique names, every
// entry's configuration valid, and no two entries projecting to the
// same replay-visible config (they would alias in the replay memo).
// It then simulates under a resolved scheme.
func TestSchemeTable(t *testing.T) {
	names := sim.SchemeNames()
	if len(names) != 3 {
		t.Fatalf("SchemeNames = %v, want the paper's three organizations", names)
	}
	seen := map[stats.EngineConfig]string{}
	for i, n := range names {
		if i > 0 && names[i-1] == n {
			t.Errorf("scheme %q listed twice", n)
		}
		spec, ok := sim.ResolveScheme(n)
		if !ok || spec.Name != n {
			t.Fatalf("ResolveScheme(%q) = %+v, %v", n, spec, ok)
		}
		cfg := sim.DefaultConfig()
		spec.Configure(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("scheme %q: %v", n, err)
		}
		ec := stats.EngineConfigOf(cfg)
		if prev, dup := seen[ec]; dup {
			t.Errorf("schemes %q and %q share the replay config %+v", prev, n, ec)
		}
		seen[ec] = n
	}

	exp, err := sim.New(
		sim.WithWorkload(testWorkload(t)),
		sim.WithSchemes("predpred"),
		sim.WithCommits(20000),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Scheme != "predpred" || r.Bench != "gzip" {
		t.Errorf("result labels: %+v", r)
	}
	if r.Stats.Committed < 20000 {
		t.Errorf("committed %d < budget", r.Stats.Committed)
	}
	if r.Stats.PredPredictions == 0 {
		t.Error("predpred did not run the predicate predictor")
	}
}

// TestRunnerStreamsAndSorts checks streaming delivery, progress
// callbacks, matrix ordering, and tabulation through the façade.
func TestRunnerStreamsAndSorts(t *testing.T) {
	var progress []sim.Progress
	exp, err := sim.New(
		sim.WithWorkload(testWorkload(t)),
		sim.WithSchemes("conventional", "predpred"),
		sim.WithCommits(20000),
		sim.WithParallelism(2),
		sim.WithProgress(func(p sim.Progress) { progress = append(progress, p) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Scheme != "conventional" || results[1].Scheme != "predpred" {
		t.Errorf("results not in matrix order: %s, %s", results[0].Scheme, results[1].Scheme)
	}
	if len(progress) != 2 || progress[len(progress)-1].Done != 2 || progress[0].Total != 2 {
		t.Errorf("progress callbacks: %+v", progress)
	}
	tab, err := sim.Tabulate("mini", exp.Schemes(), results)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if !strings.Contains(out, "gzip") || !strings.Contains(out, "predpred") {
		t.Errorf("table render:\n%s", out)
	}
}

// TestTabulateRejectsFailedRuns pins that a failed run never lands in
// a figure table: Tabulate returns the run's own error.
func TestTabulateRejectsFailedRuns(t *testing.T) {
	rs := fixedResults()
	failed := rs[1:3] // a clean predpred run, then one whose Err is set
	if _, err := sim.Tabulate("t", []string{"predpred"}, failed); !errors.Is(err, rs[2].Err) {
		t.Errorf("Tabulate over a failed run: err = %v, want the run's error", err)
	}
}

// TestRunnerCancellation verifies the worker pool stops promptly when
// the context is cancelled mid-simulation: the budget below would
// otherwise run for minutes.
func TestRunnerCancellation(t *testing.T) {
	exp, err := sim.New(
		sim.WithWorkload(testWorkload(t)),
		sim.WithSchemes("conventional", "predpred", "peppa"),
		sim.WithCommits(1<<40), // effectively unbounded
		sim.WithParallelism(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runner, err := exp.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if runner.Total() != 3 {
		t.Errorf("total = %d, want 3", runner.Total())
	}
	time.Sleep(50 * time.Millisecond) // let the first simulation get going
	start := time.Now()
	cancel()
	waitErr := make(chan error, 1)
	go func() { waitErr <- runner.Wait() }()
	select {
	case err := <-waitErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker pool did not stop within 10s of cancellation")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt shutdown", d)
	}
	n := 0
	for range runner.Results() { // channel must be closed
		n++
	}
	if n >= runner.Total() {
		t.Errorf("%d of %d runs completed despite cancellation", n, runner.Total())
	}
}

// TestProgramExperiment runs a program workload on the cycle model the
// way predsim and the examples do: the mutator is applied, the budget
// is reached and the memory hierarchy's counters are filled.
func TestProgramExperiment(t *testing.T) {
	prog, err := sim.BuildBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sim.PreparePrograms([]*sim.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	forced := false
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("predpred"),
		sim.WithCommits(20000),
		sim.WithConfigMutator(func(c *sim.Config) {
			forced = true
			c.Predication = sim.PredicationSelect
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Err != nil {
		t.Fatalf("results: %+v", rs)
	}
	res := rs[0]
	if !forced {
		t.Error("mutator not applied")
	}
	if res.Stats.Committed < 20000 {
		t.Errorf("committed %d < budget", res.Stats.Committed)
	}
	if res.Mem.L1DAccesses == 0 {
		t.Error("memory hierarchy snapshot empty")
	}
	if _, err := sim.New(sim.WithWorkload(wl), sim.WithSchemes("nope")); err == nil {
		t.Error("unknown scheme must fail")
	}
}

// TestPreparePrograms checks that a program workload rejects what
// cannot run: no programs, a nil one, an invalid one and two sharing a
// name.
func TestPreparePrograms(t *testing.T) {
	gzip, err := sim.BuildBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := sim.BuildBenchmark("vpr")
	if err != nil {
		t.Fatal(err)
	}
	fallsOff, err := sim.Assemble("falls-off", "movi r1 = 1\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	fallsOff.Insts = fallsOff.Insts[:1] // the halt is gone
	for _, c := range []struct {
		name  string
		progs []*sim.Program
		want  string
	}{
		{"empty", nil, "no programs"},
		{"nil", []*sim.Program{gzip, nil}, "program 1 is nil"},
		{"invalid", []*sim.Program{fallsOff}, "fall off the end"},
		{"duplicate", []*sim.Program{gzip, vpr, gzip}, `duplicate benchmark "gzip"`},
	} {
		if _, err := sim.PreparePrograms(c.progs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want one containing %q", c.name, err, c.want)
		}
	}
	wl, err := sim.PreparePrograms([]*sim.Program{gzip, vpr})
	if err != nil {
		t.Fatal(err)
	}
	if got := wl.Names(); !slices.Equal(got, []string{"gzip", "vpr"}) {
		t.Errorf("Names = %v, want the programs' names in order", got)
	}
}
