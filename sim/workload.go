package sim

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/stats"
)

// Workload holds the two prepared binary sets of §4.1 — plain and
// profile-guided if-converted — for a set of benchmarks. Preparing is
// the expensive part of an experiment (build + profile + convert per
// benchmark), so a Workload is built once and shared across
// experiments via WithWorkload. PrepareSpecs builds one, from the specs
// SuiteSpecs resolves or from specs built in code.
type Workload struct {
	progs []stats.Programs
}

// PrepareSpecs builds and profiles benchmark specs in parallel: the
// ones SuiteSpecs resolves from suite entries, or specs a caller
// constructs or mutates programmatically (workload-shape sweeps).
// Every spec is validated and duplicate names are rejected.
func PrepareSpecs(specs []BenchSpec, profileSteps uint64) (*Workload, error) {
	return PrepareSpecsContext(context.Background(), specs, profileSteps)
}

// PrepareSpecsContext is PrepareSpecs under a context: benchmarks not
// yet started when ctx is cancelled are skipped and the context's
// error is returned, making preparation cancellable like simulation.
func PrepareSpecsContext(ctx context.Context, specs []BenchSpec, profileSteps uint64) (*Workload, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: no benchmark specs to prepare")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := bench.Validate(s); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("sim: duplicate benchmark spec %q", s.Name)
		}
		seen[s.Name] = true
	}
	progs, err := stats.PrepareContext(ctx, specs, profileSteps)
	if err != nil {
		return nil, fmt.Errorf("sim: prepare workload: %w", err)
	}
	return &Workload{progs: progs}, nil
}

// Len returns the number of prepared benchmarks.
func (w *Workload) Len() int { return len(w.progs) }

// Names returns the prepared benchmark names in order.
func (w *Workload) Names() []string {
	names := make([]string, len(w.progs))
	for i, pg := range w.progs {
		names[i] = pg.Spec.Name
	}
	return names
}

// Regions returns how many hammock regions were if-converted for a
// benchmark. The second result reports whether the workload contains
// the benchmark at all, distinguishing "prepared, zero regions" from
// an unknown name (which Subset treats as an error).
func (w *Workload) Regions(name string) (int, bool) {
	for _, pg := range w.progs {
		if pg.Spec.Name == name {
			return pg.Regions, true
		}
	}
	return 0, false
}

// Subset returns a Workload restricted to the named benchmarks, in
// the given order, reusing the already-prepared binaries.
func (w *Workload) Subset(names ...string) (*Workload, error) {
	sub := &Workload{}
	for _, n := range names {
		found := false
		for _, pg := range w.progs {
			if pg.Spec.Name == n {
				sub.progs = append(sub.progs, pg)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sim: workload has no benchmark %q", n)
		}
	}
	return sub, nil
}
