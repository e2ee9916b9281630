package stats

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// targetsProgram is a loop that takes the replay paths the suite never
// does: calls and returns, a return whose target the return stack
// mispredicts, an indirect branch taken on a pseudo-random half of the
// iterations (so the last-target table mispredicts it), and a
// false-guarded normal compare whose guard resolves long before it, so
// selective predication cancels it and nothing writes its destinations.
func targetsProgram() *program.Program {
	b := program.NewBuilder("targets")
	b.Br("start").
		Label("sub").Ret(31)
	b.Label("start").
		MovI(1, 0).MovI(8, 99991).MovL(5, "skip").MovL(6, "back").
		CmpI(isa.RelEQ, isa.CmpUnc, 10, 11, 1, 1) // p10 stays false
	b.Label("loop").
		Call(31, "sub").
		MulI(8, 8, 6364136223846793005).AddI(8, 8, 1442695040888963407).
		ShrI(2, 8, 33).AndI(2, 2, 1).
		CmpI(isa.RelEQ, isa.CmpUnc, 1, 2, 2, 0).
		G(1).BrInd(5).
		AddI(7, 7, 1).
		Label("skip").
		G(10).CmpI(isa.RelLT, isa.CmpNorm, 3, 4, 1, 50).
		Ret(6). // a jump through the return stack, which holds no call
		Label("back").
		AddI(1, 1, 1).
		Br("loop")
	return b.Program()
}

// TestReplaySteadyStateAllocFree checks that a replay allocates only
// its setup — the engines, the batch buffers and the result slice. So
// replaying a whole trace must allocate no more than replaying the
// first few hundred commits of it, for every scheme engine (one with
// the perfect-history idealization) in one pass, over vpr's plain and
// if-converted binaries and over targetsProgram.
func TestReplaySteadyStateAllocFree(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	progs := buildBoth(t, []bench.Spec{spec}, 50000)
	perfect := config.Default().WithScheme(config.SchemePredicate)
	perfect.IdealPerfectGHR = true
	cfgs := append(schemeCfgs(), perfect)
	for _, prog := range []*program.Program{progs[0].Plain, progs[0].Converted, targetsProgram()} {
		tr, err := trace.Record(context.Background(), prog, 200000)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(commits uint64) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, nil); err != nil {
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
