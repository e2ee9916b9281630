package stats

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// renaming is a consistent renaming of a program's registers: preds
// maps each predicate register and regs each general register, both
// fixing register 0.
type renaming struct {
	preds []isa.PredReg
	regs  []isa.Reg
}

// apply returns prog with every instruction's guard and predicate
// destinations renamed through r.preds and its Rd, Rs1 and Rs2 through
// r.regs. NumGPR = NumFPR, so one permutation renames the integer and
// floating-point files alike, whichever an opcode reads.
func (r renaming) apply(prog *program.Program) *program.Program {
	out := program.New(prog.Name)
	out.Insts = make([]isa.Inst, len(prog.Insts))
	for i, in := range prog.Insts {
		in.QP, in.P1, in.P2 = r.preds[in.QP], r.preds[in.P1], r.preds[in.P2]
		in.Rd, in.Rs1, in.Rs2 = r.regs[in.Rd], r.regs[in.Rs1], r.regs[in.Rs2]
		out.Insts[i] = in
	}
	return out
}

// permutation returns a random permutation of 0..n-1 that fixes 0.
func permutation[R ~uint8](n int, seed int64) []R {
	perm := make([]R, n)
	for i, p := range rand.New(rand.NewSource(seed)).Perm(n - 1) {
		perm[i+1] = R(p + 1)
	}
	return perm
}

// identity returns the renaming of n registers that moves none.
func identity[R ~uint8](n int) []R {
	id := make([]R, n)
	for i := range id {
		id[i] = R(i)
	}
	return id
}

// TestPredicateRegistersAreNames is a metamorphic test: every predictor
// indexes by PC and history, never by register number, so renaming the
// predicate registers, or the general registers, consistently through a
// program must leave every statistic unchanged, in the cycle model and
// in replay, for each scheme on plain and if-converted binaries. It
// guards what is indexed by architectural predicate register (the PPRF
// and its replay mirror predPred, predConf and prodStep, and the
// rename-time decision) and by architectural general register (the
// rename map and the scheduler's dependences).
func TestPredicateRegistersAreNames(t *testing.T) {
	const commits = 60000
	var specs []bench.Spec
	for _, name := range []string{"gzip", "vpr", "mcf", "twolf", "swim", "mesa"} {
		s, err := bench.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	var renamings []renaming
	for _, seed := range []int64{1, 2} {
		renamings = append(renamings,
			renaming{permutation[isa.PredReg](isa.NumPred, seed), identity[isa.Reg](isa.NumGPR)},
			renaming{identity[isa.PredReg](isa.NumPred), permutation[isa.Reg](isa.NumGPR, seed)})
	}
	for _, bb := range buildBoth(t, specs, 100000) {
		for _, prog := range []*program.Program{bb.Plain, bb.Converted} {
			tr, err := trace.Record(context.Background(), prog, commits)
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range renamings {
				pp := r.apply(prog)
				ptr, err := trace.Record(context.Background(), pp, commits)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range replaySchemes {
					cfg := config.Default().WithScheme(s)
					want, err := Simulate(cfg, prog, commits)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := Simulate(cfg, pp, commits); err != nil || got != want {
						t.Errorf("%s/%v, renaming %d: pipeline %+v (%v), want %+v", prog.Name, s, k, got, err, want)
					}
					want, err = Replay(cfg, prog, tr, commits)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := Replay(cfg, pp, ptr, commits); err != nil || got != want {
						t.Errorf("%s/%v, renaming %d: replay %+v (%v), want %+v", prog.Name, s, k, got, err, want)
					}
				}
			}
		}
	}
}
