package sim_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/sim"
)

func TestWorkloadRegistryPresets(t *testing.T) {
	names := sim.WorkloadNames()
	for _, want := range []string{"all", "int11", "fp11"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("preset %q not registered (have %v)", want, names)
		}
	}
	w, ok := sim.ResolveWorkload("int11")
	if !ok || len(w.Specs) != 11 {
		t.Fatalf("int11 = %+v, %v", w, ok)
	}
	for _, s := range w.Specs {
		if s.Class != "int" {
			t.Errorf("int11 contains %s (class %s)", s.Name, s.Class)
		}
	}
	if w, _ := sim.ResolveWorkload("all"); len(w.Specs) != 22 {
		t.Errorf("all has %d specs, want 22", len(w.Specs))
	}
	// Mutating a resolved copy must not corrupt the registry.
	w1, _ := sim.ResolveWorkload("int11")
	w1.Specs[0].Sites = 999
	w2, _ := sim.ResolveWorkload("int11")
	if w2.Specs[0].Sites == 999 {
		t.Error("ResolveWorkload leaks the registry's backing slice")
	}
}

func TestRegisterWorkloadErrors(t *testing.T) {
	gzip := mustFindSpec(t, "gzip")
	cases := []struct {
		w       sim.WorkloadSpec
		wantSub string
	}{
		{sim.WorkloadSpec{Name: "", Specs: []sim.BenchSpec{gzip}}, "empty"},
		{sim.WorkloadSpec{Name: "gzip", Specs: []sim.BenchSpec{gzip}}, "shadow"},
		{sim.WorkloadSpec{Name: "empty-wl"}, "no benchmark specs"},
		{sim.WorkloadSpec{Name: "dup-wl", Specs: []sim.BenchSpec{gzip, gzip}}, "twice"},
		{sim.WorkloadSpec{Name: "all", Specs: []sim.BenchSpec{gzip}}, "already registered"},
		{sim.WorkloadSpec{Name: "bad-wl", Specs: []sim.BenchSpec{{Name: "x"}}}, "Class"},
		// Names the lookup path would route to bench.Load instead of
		// the registry must be rejected as unreachable.
		{sim.WorkloadSpec{Name: "my/set", Specs: []sim.BenchSpec{gzip}}, "never"},
		{sim.WorkloadSpec{Name: "set.json", Specs: []sim.BenchSpec{gzip}}, "never"},
	}
	for _, c := range cases {
		err := sim.RegisterWorkload(c.w)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("RegisterWorkload(%q) = %v, want error containing %q", c.w.Name, err, c.wantSub)
		}
	}
}

func mustFindSpec(t *testing.T, name string) sim.BenchSpec {
	t.Helper()
	for _, s := range sim.Benchmarks() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no suite benchmark %q", name)
	return sim.BenchSpec{}
}

func TestPrepareWorkloadRejectsDuplicates(t *testing.T) {
	// A literally repeated entry must be an explicit error naming the
	// duplicate, not a silently double-prepared (and in a sweep,
	// double-counted) benchmark.
	_, err := sim.PrepareWorkload([]string{"gzip", "gzip"}, 1000)
	if err == nil || !strings.Contains(err.Error(), `"gzip"`) {
		t.Fatalf("repeated entry error = %v, want one naming gzip", err)
	}
	// Same through overlapping workload expansion.
	_, err = sim.PrepareWorkload([]string{"int11", "gzip"}, 1000)
	if err == nil || !strings.Contains(err.Error(), `"int11"`) || !strings.Contains(err.Error(), `"gzip"`) {
		t.Fatalf("overlap error = %v, want one naming both entries", err)
	}
	// New must reject the same input at build time.
	_, err = sim.New(sim.WithSchemes("predpred"), sim.WithSuite("gzip", "gzip"))
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("New duplicate-suite error = %v", err)
	}
}

func TestWorkloadLookupErrors(t *testing.T) {
	_, err := sim.PrepareWorkload([]string{"nonesuch"}, 1000)
	if err == nil {
		t.Fatal("expected lookup error")
	}
	for _, sub := range []string{"gzip", "twolf", "int11", "fp11"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("lookup error %q does not mention %q", err, sub)
		}
	}
	// A spec-file entry that does not exist surfaces the file error.
	_, err = sim.PrepareWorkload([]string{"missing/spec.json"}, 1000)
	if err == nil || !strings.Contains(err.Error(), "missing/spec.json") {
		t.Fatalf("missing file error = %v", err)
	}
}

func TestPrepareSpecsValidates(t *testing.T) {
	bad := mustFindSpec(t, "gzip")
	bad.HardFrac = 1.5
	_, err := sim.PrepareSpecs([]sim.BenchSpec{bad}, 1000)
	if err == nil || !strings.Contains(err.Error(), "HardFrac") {
		t.Fatalf("PrepareSpecs error = %v, want HardFrac range error", err)
	}
	if _, err := sim.PrepareSpecs(nil, 1000); err == nil {
		t.Fatal("PrepareSpecs(nil) must fail")
	}
	// The site-allocation guard covers the in-memory path too: a
	// requested family that rounds to zero sites is the same silent
	// workload drift whether the spec came from a file or from code.
	tiny := sim.BenchSpec{
		Name: "tiny", Class: "int", Sites: 4, HardFrac: 0.9, IndirFrac: 0.1,
		HoistFrac: 0.5, ArrayKB: 64, Iters: 1000,
	}
	_, err = sim.PrepareSpecs([]sim.BenchSpec{tiny}, 1000)
	if err == nil || !strings.Contains(err.Error(), "allocates no sites") {
		t.Fatalf("in-memory allocation error = %v", err)
	}
	// Built-in suite specs oversubscribe by design and must stay
	// exempt — twolf through PrepareSpecs has to work.
	if _, err := sim.PrepareSpecs([]sim.BenchSpec{mustFindSpec(t, "twolf")}, 1000); err != nil {
		t.Fatalf("built-in twolf rejected: %v", err)
	}
	// But a tweaked copy of a built-in loses the exemption.
	tweaked := mustFindSpec(t, "twolf")
	tweaked.Seed++
	if _, err := sim.PrepareSpecs([]sim.BenchSpec{tweaked}, 1000); err == nil {
		t.Fatal("tweaked oversubscribed twolf must fail the allocation guard")
	}
}

// TestSpecFileRoundTrip is the PR's acceptance path: the committed
// example spec loads, prepares, runs in trace mode, and a second run
// of the same experiment is a pure trace-cache hit.
func TestSpecFileRoundTrip(t *testing.T) {
	specPath := filepath.Join("..", "examples", "customworkload", "phasehop.json")
	spec, err := sim.LoadBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "phasehop" || spec.PhaseFrac == 0 || spec.IndirFrac == 0 {
		t.Fatalf("committed spec lost its behaviour knobs: %+v", spec)
	}

	dir := t.TempDir()
	run := func() {
		t.Helper()
		exp, err := sim.New(
			sim.WithSuite(specPath),
			sim.WithSchemes("conventional", "predpred"),
			sim.WithCommits(20000),
			sim.WithProfileSteps(20000),
			sim.WithMode(sim.ModeTrace),
			sim.WithTraceDir(dir),
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
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", r.Bench, r.Scheme, r.Err)
			}
			if r.Bench != "phasehop" || r.Stats.CondBranches == 0 {
				t.Fatalf("result %+v", r)
			}
		}
	}

	run() // records the trace into dir
	recs, hits := processCounter("trace.recordings"), processCounter("trace.cache.hits")
	run() // must replay purely from the disk cache
	if d := processCounter("trace.recordings") - recs; d != 0 {
		t.Errorf("second run re-recorded %d traces, want 0", d)
	}
	if processCounter("trace.cache.hits") == hits {
		t.Error("second run served no trace-cache hits")
	}
}

func TestInvalidSpecFileFailsValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	body := `{"name": "bad", "class": "int", "sites": 8, "hardFrac": 1.5, "arrayKB": 64, "iters": 1000}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := sim.New(sim.WithSchemes("predpred"), sim.WithSuite(path))
	if err == nil || !strings.Contains(err.Error(), "HardFrac") || !strings.Contains(err.Error(), "0.0..1.0") {
		t.Fatalf("invalid spec error = %v, want HardFrac with legal range", err)
	}
}

func TestTOMLSpecThroughExperiment(t *testing.T) {
	specPath := filepath.Join("..", "examples", "customworkload", "indirstorm.toml")
	exp, err := sim.New(
		sim.WithSuite(specPath),
		sim.WithSchemes("predpred"),
		sim.WithCommits(15000),
		sim.WithProfileSteps(15000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Bench != "indirstorm" {
		t.Fatalf("bench = %q", results[0].Bench)
	}
}
