package pipeline

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/isa"
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

		// Architectural memory update.
		if u.st.isStore && !u.canceled && u.qpVal {
			pl.mem.Write64(u.memAddr, u.stBits)
			pl.hier.DataAccess(u.memAddr, pl.cycle, true)
		}

		pl.trainPredictors(u, pl.coldSlot(pl.head))
		pl.retireRename(u)
		pl.retireStats(u)

		halt := u.in.Op == isa.OpHalt
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
	if u.isCondBr {
		pl.gshare.Update(u.st.gshare, u.brGHRSnap, u.actualTaken)
		switch pl.cfg.Scheme {
		case config.SchemeConventional:
			if u.brLkValid {
				pl.twolevel.Train(c.brLk, u.actualTaken)
			}
			pl.retiredPGHR.Push(u.actualTaken)
		case config.SchemePEPPA:
			if u.pepLkValid {
				pl.pep.Update(c.pepLk, u.actualTaken)
			}
		case config.SchemePredicate:
			// Shadow conventional predictor: scores what the Table 1
			// baseline would have done, for the Figure 6b breakdown.
			lk := pl.shadow.Predict(u.st.l2, pl.shadowGHR.Snapshot())
			pl.Stats.ShadowCondBranches++
			if lk.Taken != u.actualTaken {
				pl.Stats.ShadowMispred++
				if u.early && !u.refetched {
					pl.Stats.EarlyResolvedHit++
				}
			}
			pl.shadow.Train(lk, u.actualTaken)
			pl.shadowGHR.Push(u.actualTaken)
		}
	}
	if u.st.isCompare && pl.cfg.Scheme == config.SchemePredicate {
		if u.cmpLkValid && !(u.canceled && !u.uncFalse) {
			pl.pp.Train(c.cmpLk, u.resP[0], u.resP[1])
			pl.Stats.PredPredictions += 2
			if c.cmpLk.Val1 != u.resP[0] {
				pl.Stats.PredMispredicts++
			}
			if c.cmpLk.Val2 != u.resP[1] {
				pl.Stats.PredMispredicts++
			}
			pl.retiredPGHR.Push(u.resP[0])
		}
	}
	if u.in.Op == isa.OpBrInd {
		pl.itab.Update(int(u.st.itab), u.actualTgt)
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
		if u.pDests[i].valid {
			pl.freeP = append(pl.freeP, u.pDests[i].oldP)
		}
	}
	if u.st.isLoad && !u.canceled {
		pl.ldQ--
	}
	if u.st.isStore && !u.canceled {
		n := copy(pl.stores, pl.stores[1:]) // u is the oldest store on the list
		pl.stores = pl.stores[:n]
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
	if u.st.isBranch && !u.st.isDirect && u.predNext() != u.actualNext() {
		pl.Stats.TargetMispred++
	}
	if u.st.isCompare {
		pl.Stats.Compares++
	}
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
		return fmt.Errorf("cosim: commit pc=%d but oracle pc=%d (seq %d, %s)", u.pc, em.State.PC, u.seq, u.in)
	}
	em.Step()
	in := u.in
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
			d := u.pDests[i]
			if !d.valid {
				continue
			}
			if got, want := pl.pprf[d.newP].val, em.State.ReadPred(d.arch); got != want {
				return fmt.Errorf("cosim: @%d %s: p%d = %v, oracle %v", u.pc, in, d.arch, got, want)
			}
		}
	}
	if u.st.isStore && !u.canceled && u.qpVal {
		if want := em.State.Mem.Read64(u.memAddr); want != u.stBits {
			return fmt.Errorf("cosim: @%d %s: stores %#x at %#x, oracle %#x", u.pc, in, u.stBits, u.memAddr, want)
		}
	}
	if u.st.isBranch {
		if nextPC := u.actualNext(); em.State.PC != nextPC {
			return fmt.Errorf("cosim: @%d %s: next pc %d, oracle %d", u.pc, in, nextPC, em.State.PC)
		}
	}
	return nil
}
