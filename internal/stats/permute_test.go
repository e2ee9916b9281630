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

// permutePreds returns prog with every predicate register p1–p63 renamed
// through perm (p0 stays p0) in each instruction's guard and
// destinations.
func permutePreds(prog *program.Program, perm []isa.PredReg) *program.Program {
	out := program.New(prog.Name)
	out.Insts = make([]isa.Inst, len(prog.Insts))
	for i, in := range prog.Insts {
		in.QP, in.P1, in.P2 = perm[in.QP], perm[in.P1], perm[in.P2]
		out.Insts[i] = in
	}
	return out
}

// TestPredicateRegistersAreNames is a metamorphic test: every predictor
// indexes by PC and history, never by register number, so renaming the
// predicate registers consistently through a program must leave every
// statistic unchanged, in the cycle model and in replay, for each
// scheme on plain and if-converted binaries. It guards what is indexed
// by architectural predicate register: the PPRF and its replay mirror
// (predPred, predConf, prodStep) and the rename-time decision.
func TestPredicateRegistersAreNames(t *testing.T) {
	const commits = 60000
	var specs []bench.Spec
	for _, name := range []string{"gzip", "vpr", "mcf", "twolf"} {
		s, err := bench.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	var perms [][]isa.PredReg
	for _, seed := range []int64{1, 2} {
		perm := make([]isa.PredReg, isa.NumPred)
		for i, p := range rand.New(rand.NewSource(seed)).Perm(isa.NumPred - 1) {
			perm[i+1] = isa.PredReg(p + 1)
		}
		perms = append(perms, perm)
	}
	for _, bb := range buildBoth(t, specs, 100000) {
		for _, prog := range []*program.Program{bb.Plain, bb.Converted} {
			tr, err := trace.Record(context.Background(), prog, commits)
			if err != nil {
				t.Fatal(err)
			}
			for k, perm := range perms {
				pp := permutePreds(prog, perm)
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
						t.Errorf("%s/%v, permutation %d: pipeline %+v (%v), want %+v", prog.Name, s, k, got, err, want)
					}
					want, err = Replay(cfg, prog, tr, commits)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := Replay(cfg, pp, ptr, commits); err != nil || got != want {
						t.Errorf("%s/%v, permutation %d: replay %+v (%v), want %+v", prog.Name, s, k, got, err, want)
					}
				}
			}
		}
	}
}
