package stats

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/program"
	"repro/internal/trace"
)

// TestReplaySteadyStateAllocFree is the dynamic check behind the
// //simlint:hotpath markers on the replay kernels (the frontend's
// annotate and every engine's batch path): a replay allocates only its
// setup — the engines, the batch buffers and the result slice. So
// replaying a whole trace must allocate no more than replaying the
// first few hundred commits of it, for all three schemes in one
// pass, over the plain and the if-converted binary.
func TestReplaySteadyStateAllocFree(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := Prepare([]bench.Spec{spec}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := schemeCfgs()
	for _, prog := range []*program.Program{progs[0].Plain, progs[0].Converted} {
		tr, err := trace.Record(context.Background(), prog, trace.Options{MaxSteps: 200000})
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(commits uint64) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, _, err := ReplayAll(context.Background(), cfgs, tr, commits, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		setup, whole := allocs(500), allocs(0)
		if whole > setup {
			t.Errorf("%s: replaying 200k steps allocated %v times, 500 commits %v; the per-batch path must not allocate",
				prog.Name, whole, setup)
		}
	}
}
