package sim

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/stats"
)

// Workload holds the two prepared binary sets of §4.1 — plain and
// profile-guided if-converted — for a set of suite benchmarks.
// Preparing is the expensive part of an experiment (build + profile +
// convert per benchmark), so a Workload is built once and shared
// across experiments via WithWorkload.
type Workload struct {
	progs []stats.Programs
}

// PrepareWorkload builds and profiles the named benchmarks in
// parallel. Each entry may be a built-in suite benchmark name, a
// registered workload name (see RegisterWorkload; the presets are
// "all", "int11" and "fp11"), or the path of a user-authored spec file
// (*.json / *.toml, loaded through bench.Load). Nil or empty names =
// the full 22-benchmark suite. A benchmark reachable through two
// entries is an error naming the duplicate, never a silently
// double-prepared (and double-counted) run.
func PrepareWorkload(names []string, profileSteps uint64) (*Workload, error) {
	return PrepareWorkloadContext(context.Background(), names, profileSteps)
}

// PrepareWorkloadContext is PrepareWorkload under a context:
// benchmarks not yet started when ctx is cancelled are skipped and the
// context's error is returned, making the preparation phase
// cancellable like simulation already is.
func PrepareWorkloadContext(ctx context.Context, names []string, profileSteps uint64) (*Workload, error) {
	specs, err := expandSuite(names)
	if err != nil {
		return nil, err
	}
	return prepareSpecs(ctx, specs, profileSteps)
}

// PrepareSpecs builds and profiles explicit, possibly user-authored
// benchmark specs — the in-memory path behind PrepareWorkload's
// file/registry lookup, for callers that construct or mutate specs
// programmatically (workload-shape sweeps). Every spec is validated
// and duplicate names are rejected.
func PrepareSpecs(specs []BenchSpec, profileSteps uint64) (*Workload, error) {
	return PrepareSpecsContext(context.Background(), specs, profileSteps)
}

// PrepareSpecsContext is PrepareSpecs under a context.
func PrepareSpecsContext(ctx context.Context, specs []BenchSpec, profileSteps uint64) (*Workload, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: no benchmark specs to prepare")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := checkSpec(s); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("sim: duplicate benchmark spec %q", s.Name)
		}
		seen[s.Name] = true
	}
	return prepareSpecs(ctx, specs, profileSteps)
}

// checkSpec is the validation every user-supplied spec passes: full
// range checks plus the site-allocation guard (a requested family that
// would be truncated to zero sites). Specs identical to their built-in
// suite namesake are exempt from the allocation guard — several
// built-ins oversubscribe the site budget by design as part of their
// tuning — so the suite flows through every path unimpeded while a
// tweaked copy is held to the stricter contract, same as a spec file.
func checkSpec(s bench.Spec) error {
	if err := bench.Validate(s); err != nil {
		return err
	}
	if builtin, err := bench.Find(s.Name); err == nil && builtin == s {
		return nil
	}
	return bench.CheckSiteAllocation(s)
}

// prepareSpecs runs the build+profile pass over an already-validated,
// duplicate-free spec list.
func prepareSpecs(ctx context.Context, specs []bench.Spec, profileSteps uint64) (*Workload, error) {
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
