package sim_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/sim"
)

// TestObserverOverheadAB interleaves observed and unobserved
// single-pass 3-scheme trace experiments in one process and reports
// median wall times; informational.
func TestObserverOverheadAB(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement, not a correctness test")
	}
	wl, err := sim.PrepareWorkload([]string{"vpr"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	experiment := func(extra ...sim.Option) *sim.Experiment {
		exp, err := sim.New(append([]sim.Option{
			sim.WithWorkload(wl),
			sim.WithSchemes("conventional", "predpred", "peppa"),
			sim.WithCommits(50000),
			sim.WithMode(sim.ModeTrace),
			sim.WithTraceDir(dir),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	run := func(exp *sim.Experiment) {
		if _, err := exp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	plain, observed := experiment(), experiment(sim.WithObserver(sim.NewObserver()))
	run(plain) // records the trace into dir
	const reps = 30
	var base, obs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		run(plain)
		base = append(base, time.Since(t0).Seconds())
		t0 = time.Now()
		run(observed)
		obs = append(obs, time.Since(t0).Seconds())
	}
	sort.Float64s(base)
	sort.Float64s(obs)
	mb, mo := base[reps/2], obs[reps/2]
	t.Logf("median unobserved %.4fms  observed %.4fms  overhead %+.2f%%", mb*1e3, mo*1e3, 100*(mo/mb-1))
}
