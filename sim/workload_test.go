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

// TestWorkloadPresetTable checks the fixed preset table against the
// lookup order (spec file, then preset, then suite benchmark): no
// preset may look like a spec file path or shadow a suite benchmark,
// since either would make one of the two unreachable, and no preset
// may list a member twice.
func TestWorkloadPresetTable(t *testing.T) {
	benchmarks := map[string]bool{}
	for _, s := range sim.Benchmarks() {
		benchmarks[s.Name] = true
	}
	for _, name := range sim.WorkloadNames() {
		if sim.IsSpecFile(name) {
			t.Errorf("preset %q looks like a spec file path", name)
		}
		if benchmarks[name] {
			t.Errorf("preset %q shadows the suite benchmark of the same name", name)
		}
		w, ok := sim.ResolveWorkload(name)
		if !ok || w.Name != name || w.Doc == "" || len(w.Specs) == 0 {
			t.Errorf("preset %q = %+v, %v; want a named, documented, non-empty spec set", name, w, ok)
		}
		seen := map[string]bool{}
		for _, s := range w.Specs {
			if seen[s.Name] {
				t.Errorf("preset %q lists %q twice", name, s.Name)
			}
			seen[s.Name] = true
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
	_, err := sim.SuiteSpecs("gzip", "gzip")
	if err == nil || !strings.Contains(err.Error(), `"gzip"`) {
		t.Fatalf("repeated entry error = %v, want one naming gzip", err)
	}
	// Same through overlapping workload expansion.
	_, err = sim.SuiteSpecs("int11", "gzip")
	if err == nil || !strings.Contains(err.Error(), `"int11"`) || !strings.Contains(err.Error(), `"gzip"`) {
		t.Fatalf("overlap error = %v, want one naming both entries", err)
	}
	// PrepareSpecs must reject a repeated spec built in code, which
	// never passed through the entry lookup.
	gzip := mustFindSpec(t, "gzip")
	_, err = sim.PrepareSpecs([]sim.BenchSpec{gzip, gzip}, 1000)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("PrepareSpecs duplicate-spec error = %v", err)
	}
}

func TestWorkloadLookupErrors(t *testing.T) {
	suite, err := sim.SuiteSpecs()
	if err != nil {
		t.Fatal(err)
	}
	var benchmarks []string
	for _, s := range suite {
		benchmarks = append(benchmarks, s.Name)
	}
	_, err = sim.BuildBenchmark("parsr")
	requireLookupError(t, err, "parsr", benchmarks)
	_, err = sim.SuiteSpecs("gzip", "nonesuch")
	requireLookupError(t, err, "nonesuch", append(benchmarks, sim.WorkloadNames()...))
	// A spec-file entry that does not exist surfaces the file error.
	_, err = sim.SuiteSpecs("missing/spec.json")
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
	// The built-ins pass the same guard with no exemption, so a copy
	// of the suite under another seed prepares too.
	reseeded := mustFindSpec(t, "twolf")
	reseeded.Seed += 7919
	if _, err := sim.PrepareSpecs([]sim.BenchSpec{mustFindSpec(t, "twolf"), mustFindSpec(t, "swim")}, 1000); err != nil {
		t.Fatalf("built-ins rejected: %v", err)
	}
	if _, err := sim.PrepareSpecs([]sim.BenchSpec{reseeded}, 1000); err != nil {
		t.Fatalf("reseeded twolf rejected: %v", err)
	}
	// Declaring memory walks on twolf's full site budget is rejected:
	// the family would get no sites.
	walks := mustFindSpec(t, "twolf")
	walks.MemFrac = 0.2
	if _, err := sim.PrepareSpecs([]sim.BenchSpec{walks}, 1000); err == nil || !strings.Contains(err.Error(), "MemFrac") {
		t.Fatalf("twolf with MemFrac 0.2: error = %v, want a MemFrac allocation error", err)
	}
}

// TestSpecFileRoundTrip is the PR's acceptance path: the committed
// example spec loads, prepares, runs in trace mode, and a second run
// of the same experiment is a pure trace-cache hit.
func TestSpecFileRoundTrip(t *testing.T) {
	specPath := filepath.Join("..", "examples", "customworkload", "phasehop.json")
	specs, err := sim.SuiteSpecs(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "phasehop" || specs[0].PhaseFrac == 0 || specs[0].IndirFrac == 0 {
		t.Fatalf("committed spec lost its behaviour knobs: %+v", specs)
	}

	dir := t.TempDir()
	run := func() {
		t.Helper()
		exp, err := sim.New(
			sim.WithWorkload(sim.PrepareEntries(t, 20000, specPath)),
			sim.WithSchemes("conventional", "predpred"),
			sim.WithCommits(20000),
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
	_, err := sim.SuiteSpecs(path)
	if err == nil || !strings.Contains(err.Error(), "HardFrac") || !strings.Contains(err.Error(), "0.0..1.0") {
		t.Fatalf("invalid spec error = %v, want HardFrac with legal range", err)
	}
}

// TestIndirstormSpecThroughExperiment runs the committed indirect-branch
// spec through the input chain and a trace-mode experiment.
func TestIndirstormSpecThroughExperiment(t *testing.T) {
	specPath := filepath.Join("..", "examples", "customworkload", "indirstorm.json")
	exp, err := sim.New(
		sim.WithWorkload(sim.PrepareEntries(t, 15000, specPath)),
		sim.WithSchemes("predpred"),
		sim.WithCommits(15000),
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
