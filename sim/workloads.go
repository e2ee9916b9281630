package sim

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bench"
)

// WorkloadSpec names a reusable set of benchmark specs — the workload
// counterpart of the scheme table. Anywhere a suite entry is accepted
// (SuiteSpecs, and through it the CLIs' -workload flags) a
// preset name expands to its spec set, so experiments select workload
// shapes the same way they select predictor organizations.
type WorkloadSpec struct {
	// Name is the preset's key, used in suite entries.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Specs are the member benchmarks, in presentation order.
	Specs []bench.Spec
}

// workloadPresets are the built-in suite presets: the full 22-benchmark
// suite and its two 11-benchmark class halves, in the paper's
// presentation order. Lookup tries presets before suite benchmarks, so
// no preset may share a benchmark's name or look like a spec file path.
var workloadPresets = []WorkloadSpec{
	{Name: "all", Doc: "the full 22-benchmark synthetic SPEC2000 stand-in suite", Specs: bench.Suite()},
	{Name: "int11", Doc: "the 11 integer benchmarks (gzip..twolf)", Specs: suiteClass("int")},
	{Name: "fp11", Doc: "the 11 floating-point benchmarks (wupwise..lucas)", Specs: suiteClass("fp")},
}

// suiteClass returns the suite benchmarks of one class, in order.
func suiteClass(class string) []bench.Spec {
	var out []bench.Spec
	for _, s := range bench.Suite() {
		if s.Class == class {
			out = append(out, s)
		}
	}
	return out
}

// ResolveWorkload looks a preset up by name. The returned spec set is a
// copy: mutating it cannot corrupt the preset.
func ResolveWorkload(name string) (WorkloadSpec, bool) {
	for _, w := range workloadPresets {
		if w.Name == name {
			w.Specs = append([]bench.Spec(nil), w.Specs...)
			return w, true
		}
	}
	return WorkloadSpec{}, false
}

// WorkloadNames returns every preset name, sorted.
func WorkloadNames() []string {
	names := make([]string, len(workloadPresets))
	for i, w := range workloadPresets {
		names[i] = w.Name
	}
	sort.Strings(names)
	return names
}

// SplitEntries parses a comma-separated CLI list (the -workload and
// -schemes flags) into trimmed entries, mapping "" to
// nil instead of [""] — shared so the CLIs cannot drift.
func SplitEntries(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// isSpecFile reports whether a suite entry names a spec file on disk
// rather than a workload preset or suite benchmark: it has a path
// separator or a file extension. bench.Load then rejects any extension
// but .json.
func isSpecFile(entry string) bool {
	return strings.ContainsAny(entry, `/\`) || filepath.Ext(entry) != ""
}

// SuiteSpecs resolves suite entries into a validated, duplicate-free
// spec list: the first step of every experiment's input chain, before
// PrepareSpecs and WithWorkload. Each entry may be a spec file path
// (*.json, loaded and validated), a workload preset name
// (expanded to its members), or a built-in suite benchmark name —
// tried in that order. No entries select the full built-in suite. A
// benchmark appearing twice — a literally repeated entry, or two
// workloads sharing a member — is an error naming the benchmark and
// both source entries, so experiment matrices and sweep rows are never
// silently double-counted.
func SuiteSpecs(entries ...string) ([]BenchSpec, error) {
	if len(entries) == 0 {
		return bench.Suite(), nil
	}
	var specs []bench.Spec
	sources := map[string]string{} // benchmark name -> suite entry it came from
	add := func(entry string, s bench.Spec) error {
		if prev, dup := sources[s.Name]; dup {
			return fmt.Errorf("sim: duplicate benchmark %q (from entries %q and %q)", s.Name, prev, entry)
		}
		sources[s.Name] = entry
		specs = append(specs, s)
		return nil
	}
	for _, entry := range entries {
		switch {
		case isSpecFile(entry):
			s, err := bench.Load(entry)
			if err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
			if err := add(entry, s); err != nil {
				return nil, err
			}
		default:
			if w, ok := ResolveWorkload(entry); ok {
				for _, s := range w.Specs {
					if err := add(entry, s); err != nil {
						return nil, err
					}
				}
				continue
			}
			s, err := bench.Find(entry)
			if err != nil {
				return nil, fmt.Errorf("sim: %w; workload presets: %s; spec files end in .json",
					err, strings.Join(WorkloadNames(), ", "))
			}
			if err := add(entry, s); err != nil {
				return nil, err
			}
		}
	}
	return specs, nil
}
