package ifconvert_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/program"
)

// profileOracle is the map-based profiler ProfileProgram replaced: it
// looks up the map on every conditional branch and copies a StepInfo
// per step. It is kept here as the oracle ProfileProgram must match.
func profileOracle(p *program.Program, maxSteps uint64) ifconvert.Profile {
	em := emulator.New(p)
	bimodal := make([]predictor.SatCounter, p.Len())
	prof := make(ifconvert.Profile)
	for i := uint64(0); i < maxSteps && !em.Halted; i++ {
		pc := em.State.PC
		in := p.At(pc)
		info := em.Step()
		if !info.IsBranch || !in.IsConditional() {
			continue
		}
		bp := prof[pc]
		if bp == nil {
			bp = &ifconvert.BranchProfile{PC: pc}
			prof[pc] = bp
		}
		bp.Execs++
		if info.Taken {
			bp.Taken++
		}
		if bimodal[pc].Taken() != info.Taken {
			bp.Mispredicts++
		}
		bimodal[pc].Train(info.Taken)
	}
	return prof
}

// TestProfileProgramMatchesOracle checks ProfileProgram against the
// map-based oracle on suite benchmarks, plain and if-converted, and on
// a program that halts inside the budget, at budgets of zero, one, and
// either side of the profiler's 65536-step context-check slice.
func TestProfileProgramMatchesOracle(t *testing.T) {
	type prog struct {
		name string
		p    *program.Program
	}
	var progs []prog
	for _, name := range []string{"gzip", "mcf", "vpr", "swim", "twolf", "equake"} {
		spec, err := bench.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		plain := bench.Build(spec)
		res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, 100000)))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{name, plain}, prog{name + "/ifconv", res.Prog})
	}
	progs = append(progs, prog{"lcgloop", lcgLoop()})
	for _, pr := range progs {
		for _, steps := range []uint64{0, 1, 65536, 65537, 150000} {
			got, want := ifconvert.ProfileProgram(pr.p, steps), profileOracle(pr.p, steps)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d steps: profile differs from the oracle (%d vs %d branches)",
					pr.name, steps, len(got), len(want))
			}
		}
	}
}

// lcgLoop is a 300-iteration loop around a diamond on a bit of an
// in-program LCG, then a halt.
func lcgLoop() *program.Program {
	b := program.NewBuilder("lcgloop")
	b.MovI(1, 0).MovI(2, 300).MovI(8, 12345)
	b.Label("loop").
		MulI(8, 8, 1103515245).AddI(8, 8, 12345).
		AndI(9, 8, 1<<16).
		CmpI(isa.RelNE, isa.CmpUnc, 12, 13, 9, 0).
		G(12).Br("else").
		AddI(5, 5, 1).
		Br("join").
		Label("else").AddI(5, 5, 2).
		Label("join").
		AddI(1, 1, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 10, 11, 1, 2).
		G(10).Br("loop").
		Halt()
	return b.Program()
}

// TestProfileProgramFallsOffTheEnd checks that a program whose PC leaves
// it (here through an indirect branch) ends the profile instead of
// faulting.
func TestProfileProgramFallsOffTheEnd(t *testing.T) {
	b := program.NewBuilder("offend")
	b.MovI(1, 0).MovI(2, 100)
	b.Label("loop").
		AddI(1, 1, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 10, 11, 1, 2).
		G(10).Br("loop").
		BrInd(2). // r2 = 100 is past the last instruction
		Halt()
	prof := ifconvert.ProfileProgram(b.Program(), 1<<20)
	if len(prof) != 1 {
		t.Fatalf("profiled %d branches, want 1", len(prof))
	}
	for _, bp := range prof {
		if bp.Execs != 100 || bp.Taken != 99 {
			t.Fatalf("loop branch: %d execs, %d taken; want 100, 99", bp.Execs, bp.Taken)
		}
	}
}

// countingCtx is a context that reports cancellation from its
// (limit+1)-th Err call on and counts the calls.
type countingCtx struct {
	context.Context
	limit, calls int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestProfileProgramContextCancellation checks by counting context
// checks that profiling an endless loop stops within one step slice of
// cancellation: at once when the context is already done, and after
// exactly one slice when it is cancelled during the first.
func TestProfileProgramContextCancellation(t *testing.T) {
	b := program.NewBuilder("endless")
	b.Label("top").
		AddI(1, 1, 1).
		AndI(2, 1, 4).
		CmpI(isa.RelEQ, isa.CmpUnc, 10, 11, 2, 0).
		G(10).Br("top").
		Br("top")
	p := b.Program()
	for _, limit := range []int{0, 1} {
		ctx := &countingCtx{Context: context.Background(), limit: limit}
		prof, err := ifconvert.ProfileProgramContext(ctx, p, 1<<62)
		if !errors.Is(err, context.Canceled) || prof != nil {
			t.Fatalf("limit %d: got %v, %d branches; want context.Canceled and no profile", limit, err, len(prof))
		}
		if ctx.calls != limit+1 {
			t.Fatalf("limit %d: %d context checks, want %d", limit, ctx.calls, limit+1)
		}
	}
}
