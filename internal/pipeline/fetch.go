package pipeline

import (
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/scheme"
)

// maxFrontend bounds the fetch buffer between fetch and rename.
const maxFrontend = 48

// fetch brings up to FetchWidth instructions per cycle into the
// front-end queue, following the predicted stream. All predictor
// lookups are initiated here; second-level predictions become usable
// at rename, FrontendDepth cycles later, which is the only access
// latency the model charges them.
func (pl *Pipeline) fetch() {
	if pl.fetchHalted || pl.cycle < pl.fetchStall || pl.tail-pl.mid >= maxFrontend {
		return
	}
	static := pl.static
	if uint(pl.fetchPC) >= uint(len(static)) {
		// Wrong-path fetch ran off the program; wait for a flush.
		pl.fetchHalted = true
		return
	}

	// I-cache: charge the fetch group's access; a miss stalls fetch.
	lat := pl.hier.InstAccess(scheme.InstAddr(pl.fetchPC), pl.cycle)
	if lat > pl.cfg.L1I.LatCycles {
		pl.fetchStall = pl.cycle + uint64(lat)
		return
	}

	start := pl.tail
	wake := pl.cycle + uint64(pl.cfg.FrontendDepth)
	for n := 0; n < pl.cfg.FetchWidth; n++ {
		pc := pl.fetchPC
		if uint(pc) >= uint(len(static)) {
			pl.fetchHalted = true
			break
		}
		pl.seq++
		st := &static[pc]
		u := pl.slot(pl.tail)
		u.seq = pl.seq
		u.wake = wake
		u.pc = int32(pc)
		u.decoded = st.decoded
		u.uopFlags = uopFlags{}
		// Only compares and branches consult a predictor.
		redirect := (st.isCompare || st.isBranch) && pl.fetchPredict(u, st, pl.coldSlot(pl.tail))
		pl.tail++

		if st.isHalt {
			pl.fetchHalted = true
			break
		}
		if redirect {
			break // a predicted-taken branch ends the fetch group
		}
		pl.fetchPC++
	}
	pl.Stats.Fetched += uint64(pl.tail - start)
}

// fetchPredict performs fetch-stage predictor work for one uop, whose
// static record is st and slot's cold state c, and reports whether
// fetch redirected (predicted-taken branch).
func (pl *Pipeline) fetchPredict(u *uop, st *static, c *uopCold) bool {
	// Predicate predictor: one lookup per fetched compare.
	if u.isCompare && pl.pred != nil {
		u.pGHRSnap, u.pushOrd = pl.pred.Predict(&c.cmpLk, int(u.pc))
		u.cmpLkValid = true
	}

	if !u.isBranch {
		return false
	}

	switch u.op {
	case isa.OpCall:
		pl.ras.SnapshotInto(&c.rasSnap)
		u.touchedRAS = true
		pl.ras.Push(int(u.pc) + 1)
		u.predTaken, u.predTarget = true, u.target
		pl.fetchPC = u.target
		return true
	case isa.OpRet:
		pl.ras.SnapshotInto(&c.rasSnap)
		u.touchedRAS = true
		u.predTaken, u.predTarget = true, pl.ras.Pop()
		pl.fetchPC = u.predTarget
		return true
	case isa.OpBrInd:
		u.predTaken, u.predTarget = true, pl.itab.Predict(int(st.itab))
		pl.fetchPC = u.predTarget
		return true
	}

	// Direct branch.
	u.predTarget = u.target
	if !u.isCond {
		u.predTaken = true
		pl.fetchPC = u.target
		return true
	}

	// Conditional: first-level gshare, speculative history push.
	u.isCondBr = true
	if pl.pendingRefetch[u.pc] > 0 {
		u.refetched = true
		pl.pendingRefetch[u.pc]--
	}
	u.brGHRSnap = pl.brGHR.Snapshot()
	u.fetchPredTaken = pl.gshare.Predict(st.gshare, u.brGHRSnap)
	u.pushedBrGHR = true
	pl.brGHR.Push(u.fetchPredTaken)
	u.predTaken = u.fetchPredTaken

	// Second-level lookup (delivered at rename). Under the predicate
	// scheme the branch's prediction is read from the PPRF at rename,
	// and no per-branch second-level state is touched here.
	switch pl.cfg.Scheme {
	case config.SchemeConventional:
		u.pGHRSnap, u.pushOrd = pl.conv.Predict(&c.brLk, int(u.pc))
		u.brLkValid = true
	case config.SchemePEPPA:
		c.pepLk = pl.pep.Predict(int(u.pc), pl.lastPredVal[u.qp])
		u.pepLkValid = true
	}

	if u.fetchPredTaken {
		pl.fetchPC = u.target
		return true
	}
	return false
}
