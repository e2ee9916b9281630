package pipeline

import (
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/scheme"
)

// rename consumes up to RenameWidth uops from the front-end queue,
// renaming registers and predicates, applying the predication policy
// (select micro-ops or the paper's selective cancellation/unguarding),
// reading branch predictions from the PPRF under the predicate scheme,
// and performing second-level override flushes.
func (pl *Pipeline) rename() {
	for n := 0; n < pl.cfg.RenameWidth && pl.mid < pl.tail; n++ {
		u := pl.slot(pl.mid)
		if u.wake > pl.cycle {
			return
		}
		if pl.mid-pl.head >= pl.cfg.ROBEntries {
			return
		}
		if !pl.resourcesFor(u) {
			return
		}
		pl.mid++ // u moves from the front-end queue into the ROB
		if pl.renameOne(u) {
			return // front-end flushed; nothing younger to rename
		}
	}
}

// resourcesFor conservatively checks free physical registers and queue
// slots before renaming a uop.
func (pl *Pipeline) resourcesFor(u *uop) bool {
	q := u.queue & (numIQ - 1)
	n := &u.needs
	return pl.iq[q] < pl.iqCap[q] &&
		len(pl.freeI) >= int(n.regI) && len(pl.freeF) >= int(n.regF) && len(pl.freeP) >= int(n.regP) &&
		pl.ldQ+int(n.ldQ) <= pl.cfg.LoadQEntries &&
		pl.storeTail-pl.storeHead+int(n.stQ) <= pl.cfg.StoreQEntries
}

// renameOne renames a single uop and reports whether it triggered a
// front-end override flush.
func (pl *Pipeline) renameOne(u *uop) bool {
	pos := pl.mid - 1
	u.renamed = true

	guarded := u.qp != isa.P0
	u.qpPhys = -1
	if guarded {
		u.qpPhys = pl.ratP[u.qp]
	}

	// Predication policy for guarded non-branch instructions.
	if guarded && !u.isBranch && !u.isHalt {
		pl.applyPredication(u)
	}

	if u.canceled && !u.uncFalse {
		// True nop: no rename, no issue.
		u.class = classNone
		u.done = true
		u.doneCycle = pl.cycle
		pl.trackMemQueues(u, pos)
		return false
	}

	// Sources (before destination renaming).
	// Cancelled unc compares still write false/false but evaluate
	// nothing: they have no data sources.
	// Both slots of each class are copied whatever the count: an
	// unused slot names register 0, and nothing reads past the count.
	if !u.uncFalse {
		u.srcI[0], u.srcI[1], u.nSrcI = pl.ratI[u.regI[0]], pl.ratI[u.regI[1]], u.nRegI
		u.srcF[0], u.srcF[1], u.nSrcF = pl.ratF[u.regF[0]], pl.ratF[u.regF[1]], u.nRegF
	}

	// The guard becomes a data source for select micro-ops and branches.
	if guarded && (u.selectOp || u.isBranch) {
		u.addSrcP(u.qpPhys)
	}
	// Select micro-ops also read the previous destination mapping.
	if u.selectOp && !u.isCompare {
		switch {
		case u.writesGPR:
			u.oldPhys = pl.ratI[u.rd]
			u.addSrcI(u.oldPhys)
		case u.writesFPR:
			u.oldPhys = pl.ratF[u.rd]
			u.addSrcF(u.oldPhys)
		}
	}

	// Destination renaming.
	switch {
	case u.writesGPR:
		u.dKind = destInt
		u.newPhys = pl.allocI()
		u.oldPhys = pl.ratI[u.rd]
		pl.ratI[u.rd] = u.newPhys
	case u.writesFPR:
		u.dKind = destFP
		u.newPhys = pl.allocF()
		u.oldPhys = pl.ratF[u.rd]
		pl.ratF[u.rd] = u.newPhys
	}

	if u.isCompare && !(u.canceled && !u.uncFalse) {
		pl.renameCompare(u, pl.coldSlot(pos))
	}

	var override bool
	if u.isBranch {
		override = pl.renameBranch(u, pl.coldSlot(pos))
	}

	if u.class == classNone {
		u.done = true
		u.doneCycle = pl.cycle
	} else {
		pl.acquireIQ(u)
		pl.dispatch(u, pos)
	}
	pl.trackMemQueues(u, pos)
	return override
}

// dispatch hands a renamed uop at window position pos to the scheduler.
// Each source that is not ready yet gets a consumer link on its
// register's stack and counts in pending; a uop with every source ready
// goes straight onto the ready list.
func (pl *Pipeline) dispatch(u *uop, pos int) {
	base := int32(pos&pl.mask) * srcLinks
	for k, p := range u.srcI[:u.nSrcI] {
		if r := &pl.physI[p]; !r.ready {
			l := base + int32(k)
			pl.linkNext[l], r.wait = r.wait, l
			u.pending++
		}
	}
	for k, p := range u.srcF[:u.nSrcF] {
		if r := &pl.physF[p]; !r.ready {
			l := base + 3 + int32(k)
			pl.linkNext[l], r.wait = r.wait, l
			u.pending++
		}
	}
	for k, p := range u.srcP[:u.nSrcP] {
		if e := &pl.pprf[p]; !e.computed {
			l := base + 6 + int32(k)
			pl.linkNext[l], e.wait = e.wait, l
			u.pending++
		}
	}
	if u.pending == 0 {
		pl.nReady = insertPos(pl.ready, pl.nReady, pos)
	}
}

// unlink takes a squashed uop that is still waiting off the consumer
// stacks of its sources that are not ready. Squashes undo youngest
// first and dispatch links in seq order, so the uop's links are the
// tops of those stacks; popping each class's sources in reverse
// dispatch order keeps that true when a uop reads a register twice.
func (pl *Pipeline) unlink(u *uop) {
	for k := int(u.nSrcI) - 1; k >= 0; k-- {
		if r := &pl.physI[u.srcI[k]]; !r.ready {
			r.wait = pl.linkNext[r.wait]
		}
	}
	for k := int(u.nSrcF) - 1; k >= 0; k-- {
		if r := &pl.physF[u.srcF[k]]; !r.ready {
			r.wait = pl.linkNext[r.wait]
		}
	}
	for k := int(u.nSrcP) - 1; k >= 0; k-- {
		if e := &pl.pprf[u.srcP[k]]; !e.computed {
			e.wait = pl.linkNext[e.wait]
		}
	}
}

// applyPredication decides how a guarded non-branch uop is handled:
// select micro-op (baseline), or the paper's selective cancellation /
// unguarding when the predicate scheme is active and the PPRF entry is
// computed or confidently predicted.
func (pl *Pipeline) applyPredication(u *uop) {
	g := scheme.Select
	if pl.pred != nil {
		e := &pl.pprf[u.qpPhys]
		g = pl.pred.Decide(e.computed || e.conf, e.val)
		if g != scheme.Select && !e.computed && e.robPtr == -1 {
			e.robPtr = u.seq
			pl.ppWater = u.seq
		}
	}
	switch g {
	case scheme.Select:
		u.selectOp = true
	case scheme.Unguard:
		u.unguarded = true
	case scheme.Cancel:
		u.canceled = true
		// A nullified unc compare still clears both destinations:
		// keep it executable.
		u.uncFalse = u.isCompare && u.ctype == isa.CmpUnc
	}
}

// renameCompare renames the two predicate destinations and records
// RMW semantics and predicted values; c is the uop's cold state.
func (pl *Pipeline) renameCompare(u *uop, c *uopCold) {
	// norm compares under a select-op guard, and all and/or compares,
	// may leave their destinations unwritten: the computed result is
	// then the old value (read-modify-write).
	rmw := u.ctype == isa.CmpAnd || u.ctype == isa.CmpOr ||
		(u.ctype == isa.CmpNorm && u.selectOp)
	for i, arch := range [2]isa.PredReg{u.p1, u.p2} {
		if arch == isa.P0 {
			continue
		}
		d := &u.pDests[i]
		u.pValid[i] = true
		d.arch = arch
		d.rmw = rmw
		d.oldP = pl.ratP[arch]
		if rmw {
			u.addSrcP(d.oldP)
		}
		d.newP = pl.allocP()
		e := &pl.pprf[d.newP]
		*e = pprfEntry{wait: noLink, robPtr: -1}
		if u.cmpLkValid {
			if i == 0 {
				e.val, e.conf, d.predVal = c.cmpLk.Val1, c.cmpLk.Conf1, c.cmpLk.Val1
			} else {
				e.val, e.conf, d.predVal = c.cmpLk.Val2, c.cmpLk.Conf2, c.cmpLk.Val2
			}
		}
		pl.ratP[arch] = d.newP
	}
}

// renameBranch delivers the second-level prediction at rename. Under
// the predicate scheme it reads the branch's guard from the PPRF —
// computed value (early-resolved) or prediction — per §3.1. A
// disagreement with the fetch-stage gshare flushes the front-end.
// Reports whether a flush happened. c is the uop's cold state.
func (pl *Pipeline) renameBranch(u *uop, c *uopCold) bool {
	if !u.isCondBr {
		return false
	}
	finalPred := u.predTaken
	switch pl.cfg.Scheme {
	case config.SchemeConventional:
		finalPred = c.brLk.Taken
	case config.SchemePEPPA:
		finalPred = c.pepLk.Taken
	case config.SchemePredicate:
		e := &pl.pprf[u.qpPhys]
		if e.computed {
			u.early = true
		} else {
			if e.robPtr == -1 {
				e.robPtr = u.seq
				pl.ppWater = u.seq
			}
		}
		finalPred = e.val
	}
	if finalPred == u.fetchPredTaken {
		return false
	}

	// Override: correct the speculative gshare history bit, flush the
	// front-end and redirect fetch along the new direction.
	u.predTaken = finalPred
	pl.Stats.OverrideFlushes++
	newPC := int(u.pc) + 1
	if finalPred {
		newPC = u.target
	}
	pl.flushAfter(u.seq, newPC, 0)
	pl.brGHR.Restore(u.brGHRSnap)
	pl.brGHR.Push(finalPred)
	return true
}

func (pl *Pipeline) allocI() int32 {
	n := len(pl.freeI) - 1
	p := pl.freeI[n]
	pl.freeI = pl.freeI[:n]
	pl.physI[p] = physReg{wait: noLink}
	return p
}

func (pl *Pipeline) allocF() int32 {
	n := len(pl.freeF) - 1
	p := pl.freeF[n]
	pl.freeF = pl.freeF[:n]
	pl.physF[p] = physRegF{wait: noLink}
	return p
}

func (pl *Pipeline) allocP() int32 {
	n := len(pl.freeP) - 1
	p := pl.freeP[n]
	pl.freeP = pl.freeP[:n]
	return p
}

func (pl *Pipeline) acquireIQ(u *uop) { pl.iq[u.queue&(numIQ-1)]++ }

// trackMemQueues counts an effective load in the load queue and puts an
// effective store, at window position pos, on the store list.
func (pl *Pipeline) trackMemQueues(u *uop, pos int) {
	if u.canceled {
		return
	}
	if u.isLoad {
		pl.ldQ++
	}
	if u.isStore {
		if pl.storeTail == len(pl.stores) {
			pl.storeTail = copy(pl.stores, pl.storeList())
			pl.storeHead = 0
		}
		pl.stores[pl.storeTail] = pos
		pl.storeTail++
	}
}
