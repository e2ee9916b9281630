package sim_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/sim"
)

// testWorkload prepares a tiny one-benchmark workload once; profiling
// dominates test runtime, so every test shares it.
var testWorkload = func() func(t *testing.T) *sim.Workload {
	var wl *sim.Workload
	var err error
	done := false
	return func(t *testing.T) *sim.Workload {
		t.Helper()
		if !done {
			wl, err = sim.PrepareWorkload([]string{"gzip"}, 30000)
			done = true
		}
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
}()

func TestNewValidatesOptions(t *testing.T) {
	if _, err := sim.New(); err == nil {
		t.Error("New with no schemes must fail")
	}
	if _, err := sim.New(sim.WithSchemes("no-such-scheme")); err == nil {
		t.Error("unknown scheme must fail")
	}
	if _, err := sim.New(sim.WithSchemes("predpred"), sim.WithSuite("no-such-bench")); err == nil {
		t.Error("unknown benchmark must fail")
	}
	if _, err := sim.New(sim.WithSchemes("predpred"), sim.WithParallelism(-1)); err == nil {
		t.Error("negative parallelism must fail")
	}
	if _, err := sim.New(sim.WithSchemes("conventional", "predpred"), sim.WithSuite("gzip", "twolf")); err != nil {
		t.Errorf("valid experiment rejected: %v", err)
	}
}

// TestSchemeRegistryRoundTrip registers a derived predictor
// organization, resolves it, and simulates under it — the extension
// path that used to require editing the config.Scheme enum.
func TestSchemeRegistryRoundTrip(t *testing.T) {
	spec := sim.SchemeSpec{
		Name: "predpred-split",
		Doc:  "predicate predictor with a statically split PVT (§3.3 ablation)",
		Base: "predpred",
		Configure: func(c *sim.Config) {
			c.SplitPVT = true
		},
	}
	if err := sim.RegisterScheme(spec); err != nil {
		t.Fatal(err)
	}
	if err := sim.RegisterScheme(spec); err == nil {
		t.Error("duplicate registration must fail")
	}
	if err := sim.RegisterScheme(sim.SchemeSpec{Name: "orphan", Base: "no-such-base"}); err == nil {
		t.Error("unregistered base must fail")
	}
	got, ok := sim.ResolveScheme("predpred-split")
	if !ok || got.Base != "predpred" {
		t.Fatalf("resolve: %+v ok=%v", got, ok)
	}
	found := false
	for _, n := range sim.SchemeNames() {
		if n == "predpred-split" {
			found = true
		}
	}
	if !found {
		t.Errorf("SchemeNames misses the new scheme: %v", sim.SchemeNames())
	}

	exp, err := sim.New(
		sim.WithWorkload(testWorkload(t)),
		sim.WithSchemes("predpred-split"),
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
	if r.Scheme != "predpred-split" || r.Bench != "gzip" {
		t.Errorf("result labels: %+v", r)
	}
	if r.Stats.Committed < 20000 {
		t.Errorf("committed %d < budget", r.Stats.Committed)
	}
	if r.Stats.PredPredictions == 0 {
		t.Error("derived scheme did not run the predicate predictor")
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

// TestSimulateProgram drives the single-program path used by predsim
// and the examples, including the architectural register snapshot.
func TestSimulateProgram(t *testing.T) {
	prog, err := sim.BuildBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	forced := false
	res, err := sim.SimulateProgram(context.Background(), sim.ProgramRun{
		Program: prog,
		Scheme:  "predpred",
		Commits: 20000,
		Mutate: func(c *sim.Config) {
			forced = true
			c.Predication = sim.PredicationSelect
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !forced {
		t.Error("mutator not applied")
	}
	if res.Stats.Committed < 20000 {
		t.Errorf("committed %d < budget", res.Stats.Committed)
	}
	if res.Mem.L1DAccesses == 0 {
		t.Error("memory hierarchy snapshot empty")
	}
	any := false
	for _, v := range res.GPR {
		if v != 0 {
			any = true
		}
	}
	if !any {
		t.Error("architectural register snapshot all zero")
	}
	if _, err := sim.SimulateProgram(context.Background(), sim.ProgramRun{Program: prog, Scheme: "nope"}); err == nil {
		t.Error("unknown scheme must fail")
	}
}
