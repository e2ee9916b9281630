// Custom-workload phase behaviour: loads the user-authored phasehop
// spec (a workload whose branch biases INVERT every PhasePeriod outer
// iterations — a behaviour family the fixed SPEC stand-in suite never
// exercises), then sweeps the workload shape itself: the same spec is
// prepared at a range of phase periods, one benchmark per period, and
// every predictor organization replays each variant in trace mode.
//
// Fast regime changes force constant retraining, so all schemes
// degrade as the period shrinks; the interesting question — recorded
// in EXPERIMENTS.md — is whether the predicate predictor's accuracy
// lead survives across the whole curve, since its GHR-repair and
// delayed-training machinery is exactly what phase flips stress.
//
// The directory's other spec, indirstorm.json, is an
// indirect-branch-heavy workload the fixed suite never exercises: half
// the sites dispatch through 8-entry jump tables off pseudo-random
// selectors, stressing the indirect-target table that the trace format
// records (EvBrInd) and the replay engine consumes. Pass it with -spec,
// or run it alone with cmd/predsim -workload.
//
// Run from the repository root:
//
//	go run ./examples/customworkload
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/sim"
)

func main() {
	specPath := flag.String("spec", "examples/customworkload/phasehop.json", "benchmark spec file to sweep")
	commits := flag.Uint64("n", sim.DefaultCommits, "committed instructions per run")
	profile := flag.Uint64("profile", sim.DefaultProfileSteps, "profiling steps for if-conversion")
	flag.Parse()

	specs, err := sim.SuiteSpecs(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	if len(specs) != 1 {
		log.Fatalf("-spec %s names %d benchmarks; the sweep varies one", *specPath, len(specs))
	}
	base := specs[0]
	schemes := []string{"conventional", "predpred", "peppa"}
	// ~860 outer iterations fit in the default commit budget, so the
	// axis spans "flips every few dozen iterations" down to "never
	// flips within the run" (the phase-free baseline).
	periods := []int64{16, 64, 256, 1024}

	// One benchmark per period, named like benchmark/'s custom
	// workload. The name only labels the program: traces are keyed by
	// the built binary, so each variant records its trace once and
	// re-runs replay from disk.
	variants := make([]sim.BenchSpec, len(periods))
	for i, period := range periods {
		variants[i] = base
		variants[i].Name = fmt.Sprintf("%s-p%d", base.Name, period)
		variants[i].PhasePeriod = period
	}
	wl, err := sim.PrepareSpecs(variants, *profile)
	if err != nil {
		log.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes(schemes...),
		sim.WithCommits(*commits),
		sim.WithMode(sim.ModeTrace),
	)
	if err != nil {
		log.Fatal(err)
	}
	results, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("phase-behaviour curve for %q (%d commits/run, trace mode)\n", base.Name, *commits)
	fmt.Printf("bias of every phase site inverts each period; %d%% of sites are phase-switching\n\n",
		int(100*base.PhaseFrac))
	fmt.Printf("%-12s", "period")
	for _, s := range schemes {
		fmt.Printf(" %14s", s)
	}
	fmt.Println("  (mispredict %)")
	for i, period := range periods {
		fmt.Printf("%-12d", period)
		for _, r := range results[i*len(schemes) : (i+1)*len(schemes)] {
			if r.Err != nil {
				log.Fatalf("%s/%s: %v", r.Bench, r.Scheme, r.Err)
			}
			fmt.Printf(" %13.2f%%", 100*r.Stats.MispredictRate())
		}
		fmt.Println()
	}

	fmt.Println("\nShorter periods mean more regime flips per run: every flip invalidates")
	fmt.Println("what the predictors learned about every phase site, so misprediction")
	fmt.Println("climbs as the period shrinks. The predicate predictor must hold its")
	fmt.Println("lead across the curve for the paper's claim to generalize beyond the")
	fmt.Println("(phase-free) SPEC stand-in suite.")
}
