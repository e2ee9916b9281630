package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bench"
)

// WorkloadSpec names a reusable set of benchmark specs — the workload
// counterpart of the scheme registry. Anywhere a suite entry is
// accepted (WithSuite, PrepareWorkload, the CLIs' -suite/-workload
// flags) a registered workload name expands to its spec set, so
// experiments select workload shapes the same way they select
// predictor organizations.
type WorkloadSpec struct {
	// Name is the registry key, used in suite entries.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Specs are the member benchmarks, in presentation order.
	Specs []bench.Spec
}

var workloadReg = struct {
	sync.RWMutex
	specs map[string]WorkloadSpec
}{specs: map[string]WorkloadSpec{}}

// RegisterWorkload adds a named workload to the registry. It fails on
// an empty or duplicate name, on a name that shadows a built-in suite
// benchmark (lookup resolves benchmarks last, so a shadow would make
// them unreachable), on an empty spec set, on a member spec that fails
// bench validation, and on duplicate member names.
func RegisterWorkload(w WorkloadSpec) error {
	if w.Name == "" {
		return fmt.Errorf("sim: workload name must not be empty")
	}
	if isSpecFile(w.Name) {
		return fmt.Errorf("sim: workload name %q looks like a spec file path (path separator or .json/.toml suffix) and lookup would never reach the registry", w.Name)
	}
	if _, err := bench.Find(w.Name); err == nil {
		return fmt.Errorf("sim: workload %q would shadow the suite benchmark of the same name", w.Name)
	}
	if len(w.Specs) == 0 {
		return fmt.Errorf("sim: workload %q has no benchmark specs", w.Name)
	}
	seen := map[string]bool{}
	for _, s := range w.Specs {
		if err := checkSpec(s); err != nil {
			return fmt.Errorf("sim: workload %q: %w", w.Name, err)
		}
		if seen[s.Name] {
			return fmt.Errorf("sim: workload %q lists benchmark %q twice", w.Name, s.Name)
		}
		seen[s.Name] = true
	}
	workloadReg.Lock()
	defer workloadReg.Unlock()
	if _, dup := workloadReg.specs[w.Name]; dup {
		return fmt.Errorf("sim: workload %q already registered", w.Name)
	}
	w.Specs = append([]bench.Spec(nil), w.Specs...)
	workloadReg.specs[w.Name] = w
	return nil
}

// mustRegisterWorkload is RegisterWorkload that panics on error, for
// package-init registration.
func mustRegisterWorkload(w WorkloadSpec) {
	if err := RegisterWorkload(w); err != nil {
		panic(err)
	}
}

// ResolveWorkload looks a workload up by name. The returned spec set
// is a copy: mutating it cannot corrupt the registered workload.
func ResolveWorkload(name string) (WorkloadSpec, bool) {
	workloadReg.RLock()
	defer workloadReg.RUnlock()
	w, ok := workloadReg.specs[name]
	if ok {
		w.Specs = append([]bench.Spec(nil), w.Specs...)
	}
	return w, ok
}

// WorkloadNames returns every registered workload name, sorted.
func WorkloadNames() []string {
	workloadReg.RLock()
	defer workloadReg.RUnlock()
	names := make([]string, 0, len(workloadReg.specs))
	for n := range workloadReg.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The built-in suite presets: the full 22-benchmark suite and its two
// 11-benchmark class halves, under the paper's presentation order.
func init() {
	var ints, fps []bench.Spec
	for _, s := range bench.Suite() {
		if s.Class == "fp" {
			fps = append(fps, s)
		} else {
			ints = append(ints, s)
		}
	}
	mustRegisterWorkload(WorkloadSpec{
		Name: "all", Doc: "the full 22-benchmark synthetic SPEC2000 stand-in suite",
		Specs: bench.Suite(),
	})
	mustRegisterWorkload(WorkloadSpec{
		Name: "int11", Doc: "the 11 integer benchmarks (gzip..twolf)",
		Specs: ints,
	})
	mustRegisterWorkload(WorkloadSpec{
		Name: "fp11", Doc: "the 11 floating-point benchmarks (wupwise..lucas)",
		Specs: fps,
	})
}

// SuiteSpecs resolves suite entries — benchmark names, registered
// workload names, spec file paths — into their validated,
// duplicate-free spec list: the lookup behind WithSuite and
// PrepareWorkload, exported for tools that need the specs without
// preparing binaries (cmd/predsim's -workload flag).
func SuiteSpecs(entries ...string) ([]BenchSpec, error) {
	return expandSuite(entries)
}

// SplitEntries parses a comma-separated CLI list (the -suite,
// -workload and -schemes flags) into trimmed entries, mapping "" to
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
// rather than a registered workload or suite benchmark.
func isSpecFile(entry string) bool {
	return strings.HasSuffix(entry, ".json") || strings.HasSuffix(entry, ".toml") ||
		strings.ContainsAny(entry, `/\`)
}

// expandSuite resolves suite entries into a validated, duplicate-free
// spec list. Each entry may be a spec file path (*.json / *.toml,
// loaded and validated), a registered workload name (expanded to its
// members), or a built-in suite benchmark name — tried in that order.
// Nil or empty entries select the full built-in suite. A benchmark
// appearing twice — a literally repeated entry, or two workloads
// sharing a member — is an error naming the benchmark and both source
// entries, so experiment matrices and sweep rows are never silently
// double-counted.
func expandSuite(entries []string) ([]bench.Spec, error) {
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
				return nil, fmt.Errorf("sim: %w; registered workloads: %s; spec files end in .json or .toml",
					err, strings.Join(WorkloadNames(), ", "))
			}
			if err := add(entry, s); err != nil {
				return nil, err
			}
		}
	}
	return specs, nil
}
