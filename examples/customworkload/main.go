// Custom-workload phase behaviour: loads the user-authored phasehop
// spec (a workload whose branch biases INVERT every PhasePeriod outer
// iterations — a behaviour family the fixed SPEC stand-in suite never
// exercises), then sweeps the workload shape itself: the same spec is
// re-prepared at a range of phase periods and every predictor
// organization replays each variant in trace mode.
//
// Fast regime changes force constant retraining, so all schemes
// degrade as the period shrinks; the interesting question — recorded
// in EXPERIMENTS.md — is whether the predicate predictor's accuracy
// lead survives across the whole curve, since its GHR-repair and
// delayed-training machinery is exactly what phase flips stress.
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

	base, err := sim.LoadBenchSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	schemes := []string{"conventional", "predpred", "peppa"}
	// ~860 outer iterations fit in the default commit budget, so the
	// axis spans "flips every few dozen iterations" down to "never
	// flips within the run" (the phase-free baseline).
	periods := []int64{16, 64, 256, 1024}

	fmt.Printf("phase-behaviour curve for %q (%d commits/run, trace mode)\n", base.Name, *commits)
	fmt.Printf("bias of every phase site inverts each period; %d%% of sites are phase-switching\n\n",
		int(100*base.PhaseFrac))
	fmt.Printf("%-12s", "period")
	for _, s := range schemes {
		fmt.Printf(" %14s", s)
	}
	fmt.Println("  (mispredict %)")

	for _, period := range periods {
		spec := base
		spec.PhasePeriod = period
		// The spec hash keys the trace cache, so every period variant
		// records its own trace once and re-runs replay from disk.
		wl, err := sim.PrepareSpecs([]sim.BenchSpec{spec}, *profile)
		if err != nil {
			log.Fatal(err)
		}
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithSchemes(schemes...),
			sim.WithCommits(*commits),
			sim.WithMode(sim.ModeTrace),
			sim.WithTag(fmt.Sprintf("period=%d", period)),
		)
		if err != nil {
			log.Fatal(err)
		}
		results, err := exp.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12d", period)
		for _, r := range results {
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
