package pipeline

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// maxFrontend bounds the fetch buffer between fetch and rename.
const maxFrontend = 48

// fetch brings up to FetchWidth instructions per cycle into the
// front-end queue, following the predicted stream. All predictor
// lookups are initiated here; slow (multi-cycle) predictions become
// usable at rename, which the front-end depth guarantees is at least
// L2PredLatency cycles later.
func (pl *Pipeline) fetch() {
	if pl.fetchHalted || pl.cycle < pl.fetchStall || pl.tail-pl.mid >= maxFrontend {
		return
	}
	if pl.fetchPC < 0 || pl.fetchPC >= pl.prog.Len() {
		// Wrong-path fetch ran off the program; wait for a flush.
		pl.fetchHalted = true
		return
	}

	// I-cache: charge the fetch group's access; a miss stalls fetch.
	lat := pl.hier.InstAccess(instAddr(pl.fetchPC), pl.cycle)
	if lat > pl.cfg.L1I.LatCycles {
		pl.fetchStall = pl.cycle + uint64(lat)
		return
	}

	for n := 0; n < pl.cfg.FetchWidth; n++ {
		if pl.fetchPC < 0 || pl.fetchPC >= pl.prog.Len() {
			pl.fetchHalted = true
			return
		}
		pl.seq++
		u := pl.slot(pl.tail)
		u.seq = pl.seq
		u.st = &pl.static[pl.fetchPC]
		u.in = pl.prog.At(pl.fetchPC)
		u.wake = pl.cycle + uint64(pl.cfg.FrontendDepth)
		u.pc = int32(pl.fetchPC)
		u.uopState = uopState{} // zeroed in place: a literal would be built, then copied
		redirect := pl.fetchPredict(u, pl.coldSlot(pl.tail))
		pl.tail++
		pl.Stats.Fetched++

		if u.in.Op == isa.OpHalt {
			pl.fetchHalted = true
			return
		}
		if redirect {
			return // a predicted-taken branch ends the fetch group
		}
		pl.fetchPC++
	}
}

// fetchPredict performs fetch-stage predictor work for one uop, whose
// slot's cold state is c, and reports whether fetch redirected
// (predicted-taken branch).
func (pl *Pipeline) fetchPredict(u *uop, c *uopCold) bool {
	in := u.in
	addr := instAddr(int(u.pc))

	// Predicate predictor: one lookup per fetched compare; the GHR is
	// speculatively updated ONCE, with the first predicted value (§3.3).
	if u.st.isCompare && pl.cfg.Scheme == config.SchemePredicate {
		c.cmpLk = pl.pp.Predict(addr, pl.predGHR())
		u.cmpLkValid = true
		u.pGHRSnap = pl.pGHR.Snapshot()
		u.pushedPGHR = true
		pl.pGHR.Push(c.cmpLk.Val1)
	}

	if !u.st.isBranch {
		return false
	}

	switch in.Op {
	case isa.OpCall:
		pl.ras.SnapshotInto(&c.rasSnap)
		u.touchedRAS = true
		pl.ras.Push(int(u.pc) + 1)
		u.predTaken, u.predTarget = true, in.Target
		pl.fetchPC = in.Target
		return true
	case isa.OpRet:
		pl.ras.SnapshotInto(&c.rasSnap)
		u.touchedRAS = true
		u.predTaken, u.predTarget = true, pl.ras.Pop()
		pl.fetchPC = u.predTarget
		return true
	case isa.OpBrInd:
		u.predTaken, u.predTarget = true, pl.itab.Predict(addr)
		pl.fetchPC = u.predTarget
		return true
	}

	// Direct branch.
	u.predTarget = in.Target
	if !u.st.isCond {
		u.predTaken = true
		pl.fetchPC = in.Target
		return true
	}

	// Conditional: first-level gshare, speculative history push.
	u.isCondBr = true
	if pl.pendingRefetch[u.pc] > 0 {
		u.refetched = true
		pl.pendingRefetch[u.pc]--
	}
	u.brGHRSnap = pl.brGHR.Snapshot()
	u.fetchPredTaken = pl.gshare.Predict(addr, u.brGHRSnap)
	u.pushedBrGHR = true
	pl.brGHR.Push(u.fetchPredTaken)
	u.predTaken = u.fetchPredTaken

	// Second-level lookup (delivered at rename).
	switch pl.cfg.Scheme {
	case config.SchemeConventional:
		c.brLk = pl.twolevel.Predict(addr, pl.predGHR())
		u.brLkValid = true
		u.pGHRSnap = pl.pGHR.Snapshot()
		u.pushedPGHR = true
		pl.pGHR.Push(c.brLk.Taken)
	case config.SchemePEPPA:
		c.pepLk = pl.pep.Predict(addr, pl.lastPredVal[in.QP])
		u.pepLkValid = true
	case config.SchemePredicate:
		// The branch's prediction is read from the PPRF at rename; no
		// per-branch second-level state is touched here.
	}

	if u.fetchPredTaken {
		pl.fetchPC = in.Target
		return true
	}
	return false
}
