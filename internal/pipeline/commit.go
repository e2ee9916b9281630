package pipeline

import (
	"fmt"
	"math"

	"repro/internal/scheme"
)

// commit retires up to CommitWidth completed uops in order: stores write
// architectural memory, predictors train on the resolved outcomes, and
// statistics are collected (committed path only, so wrong-path activity
// never pollutes the accuracy numbers).
func (pl *Pipeline) commit() {
	for n := 0; n < pl.cfg.CommitWidth && pl.head < pl.mid; n++ {
		u := pl.slot(pl.head)
		if !u.done {
			return
		}
		if pl.CoSim != nil {
			if err := pl.cosimCheck(u); err != nil {
				pl.CoSimErr = err
				return
			}
		}

		if u.plainRetire {
			// No predictor work: a store writes architectural memory,
			// the uop frees its previous destination mapping and its
			// memory-queue entry, and the predication outcome counts.
			if u.isStore && !u.canceled {
				if u.qpVal {
					pl.mem.Write64(u.memAddr, u.stBits)
					pl.hier.DataAccess(u.memAddr, pl.cycle, true)
				}
				pl.storeHead++ // u is the oldest store on the list
				if pl.storeHead == len(pl.stores) {
					pl.stores, pl.storeHead = pl.stores[:0], 0
				}
			}
			switch u.dKind {
			case destInt:
				pl.freeI = append(pl.freeI, u.oldPhys)
			case destFP:
				pl.freeF = append(pl.freeF, u.oldPhys)
			}
			if u.isLoad && !u.canceled {
				pl.ldQ--
			}
			pl.countPredication(u)
			pl.head++
			pl.Stats.Committed++
			continue
		}

		// A branch, compare or halt.
		pl.trainPredictors(u, pl.coldSlot(pl.head))
		pl.retireRename(u)
		pl.retireStats(u)

		halt := u.isHalt
		pl.head++ // u leaves the window; fetch may now reuse its slot
		pl.Stats.Committed++
		if halt {
			pl.halted = true
			pl.Stats.HaltSeen = true
			return
		}
	}
}

// trainPredictors updates every predictor with the committed outcome;
// c is the uop's cold state.
func (pl *Pipeline) trainPredictors(u *uop, c *uopCold) {
	st := &pl.static[u.pc]
	if u.isCondBr {
		pl.gshare.Update(st.gshare, u.brGHRSnap, u.actualTaken)
		switch {
		case u.brLkValid:
			pl.conv.Commit(&c.brLk, u.actualTaken)
		case u.pepLkValid:
			pl.pep.Commit(&c.pepLk, u.actualTaken)
		case pl.pred != nil:
			// Shadow conventional predictor: scores what the Table 1
			// baseline would have done, for the Figure 6b breakdown.
			pl.Stats.ShadowCondBranches++
			if pl.conv.Score(int(u.pc), u.actualTaken) {
				pl.Stats.ShadowMispred++
				if u.early && !u.refetched {
					pl.Stats.EarlyResolvedHit++
				}
			}
		}
	}
	if u.cmpLkValid && !(u.canceled && !u.uncFalse) {
		pl.pred.Train(&c.cmpLk, u.resP[0], u.resP[1])
		pl.pred.Retire(u.resP[0])
		pl.Stats.PredPredictions += 2
		pl.Stats.PredMispredicts += scheme.Misses(&c.cmpLk, u.resP[0], u.resP[1])
	}
	if u.isBrInd {
		pl.itab.Update(int(st.itab), u.actualTgt)
	}
}

// retireRename frees the previous physical mappings now that the new
// ones are architectural.
func (pl *Pipeline) retireRename(u *uop) {
	switch u.dKind {
	case destInt:
		pl.freeI = append(pl.freeI, u.oldPhys)
	case destFP:
		pl.freeF = append(pl.freeF, u.oldPhys)
	}
	for i := 0; i < 2; i++ {
		if u.pValid[i] {
			pl.freeP = append(pl.freeP, u.pDests[i].oldP)
		}
	}
}

// retireStats collects committed-path statistics.
func (pl *Pipeline) retireStats(u *uop) {
	if u.isCondBr {
		pl.Stats.CondBranches++
		if u.predTaken != u.actualTaken {
			pl.Stats.BranchMispred++
		}
		if u.early && !u.refetched {
			pl.Stats.EarlyResolved++
		}
	}
	if u.isBranch && !u.isDirect && u.predNext() != u.actualNext() {
		pl.Stats.TargetMispred++
	}
	if u.isCompare {
		pl.Stats.Compares++
	}
	pl.countPredication(u)
}

// countPredication counts how rename handled a guarded uop.
func (pl *Pipeline) countPredication(u *uop) {
	switch {
	case u.canceled:
		pl.Stats.Cancelled++
	case u.unguarded:
		pl.Stats.Unguarded++
	case u.selectOp:
		pl.Stats.SelectOps++
	}
}

// cosimCheck steps the functional oracle and compares committed
// architectural effects against it.
func (pl *Pipeline) cosimCheck(u *uop) error {
	em := pl.CoSim
	if em.Halted {
		return fmt.Errorf("cosim: pipeline commits @%d after oracle halted", u.pc)
	}
	if em.State.PC != int(u.pc) {
		return fmt.Errorf("cosim: commit pc=%d but oracle pc=%d (seq %d, %s)", u.pc, em.State.PC, u.seq, pl.prog.At(int(u.pc)))
	}
	em.Step()
	in := pl.prog.At(int(u.pc))
	if !u.canceled || u.uncFalse {
		switch u.dKind {
		case destInt:
			if got, want := pl.physI[u.newPhys].val, em.State.ReadGPR(in.Rd); got != want {
				return fmt.Errorf("cosim: @%d %s: r%d = %d, oracle %d", u.pc, in, in.Rd, got, want)
			}
		case destFP:
			got, want := pl.physF[u.newPhys].val, em.State.FPR[in.Rd]
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("cosim: @%d %s: f%d = %v, oracle %v", u.pc, in, in.Rd, got, want)
			}
		}
		for i := 0; i < 2; i++ {
			if !u.pValid[i] {
				continue
			}
			d := u.pDests[i]
			if got, want := pl.pprf[d.newP].val, em.State.ReadPred(d.arch); got != want {
				return fmt.Errorf("cosim: @%d %s: p%d = %v, oracle %v", u.pc, in, d.arch, got, want)
			}
		}
	}
	if u.isStore && !u.canceled && u.qpVal {
		if want := em.State.Mem.Read64(u.memAddr); want != u.stBits {
			return fmt.Errorf("cosim: @%d %s: stores %#x at %#x, oracle %#x", u.pc, in, u.stBits, u.memAddr, want)
		}
	}
	if u.isBranch {
		if nextPC := u.actualNext(); em.State.PC != nextPC {
			return fmt.Errorf("cosim: @%d %s: next pc %d, oracle %d", u.pc, in, nextPC, em.State.PC)
		}
	}
	return nil
}
