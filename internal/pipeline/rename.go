package pipeline

import (
	"repro/internal/config"
	"repro/internal/isa"
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
	st := u.st
	if st.writesGPR && len(pl.freeI) < 1 {
		return false
	}
	if st.writesFPR && len(pl.freeF) < 1 {
		return false
	}
	if st.isCompare && len(pl.freeP) < 2 {
		return false
	}
	switch st.class {
	case classBr:
		if pl.brIQ >= pl.cfg.BrIQEntries {
			return false
		}
	case classMem:
		if pl.intIQ >= pl.cfg.IntIQEntries {
			return false
		}
		if st.isLoad && pl.ldQ >= pl.cfg.LoadQEntries {
			return false
		}
		if st.isStore && len(pl.stores) >= pl.cfg.StoreQEntries {
			return false
		}
	case classFP:
		if pl.fpIQ >= pl.cfg.FPIQEntries {
			return false
		}
	default: // classInt, and nops and halts (classNone)
		if pl.intIQ >= pl.cfg.IntIQEntries {
			return false
		}
	}
	return true
}

// renameOne renames a single uop and reports whether it triggered a
// front-end override flush.
func (pl *Pipeline) renameOne(u *uop) bool {
	in, st := u.in, u.st
	pos := pl.mid - 1
	u.renamed = true
	u.class = st.class

	guarded := in.QP != isa.P0
	u.qpPhys = -1
	if guarded {
		u.qpPhys = pl.ratP[in.QP]
	}

	// Predication policy for guarded non-branch instructions.
	if guarded && !st.isBranch && in.Op != isa.OpHalt {
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
	if !u.uncFalse {
		for _, r := range st.srcI[:st.nSrcI] {
			u.addSrcI(pl.ratI[r])
		}
		for _, r := range st.srcF[:st.nSrcF] {
			u.addSrcF(pl.ratF[r])
		}
	}

	// The guard becomes a data source for select micro-ops and branches.
	if guarded && (u.selectOp || st.isBranch) {
		u.addSrcP(u.qpPhys)
	}
	// Select micro-ops also read the previous destination mapping.
	if u.selectOp && !st.isCompare {
		switch {
		case st.writesGPR:
			u.oldPhys = pl.ratI[in.Rd]
			u.addSrcI(u.oldPhys)
		case st.writesFPR:
			u.oldPhys = pl.ratF[in.Rd]
			u.addSrcF(u.oldPhys)
		}
	}

	// Destination renaming.
	switch {
	case st.writesGPR:
		u.dKind = destInt
		u.newPhys = pl.allocI()
		u.oldPhys = pl.ratI[in.Rd]
		pl.ratI[in.Rd] = u.newPhys
	case st.writesFPR:
		u.dKind = destFP
		u.newPhys = pl.allocF()
		u.oldPhys = pl.ratF[in.Rd]
		pl.ratF[in.Rd] = u.newPhys
	}

	if st.isCompare && !(u.canceled && !u.uncFalse) {
		pl.renameCompare(u, pl.coldSlot(pos))
	}

	var override bool
	if st.isBranch {
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
		if !pl.physI[p].ready {
			l := base + int32(k)
			pl.linkNext[l], pl.waitI[p] = pl.waitI[p], l
			u.pending++
		}
	}
	for k, p := range u.srcF[:u.nSrcF] {
		if !pl.physF[p].ready {
			l := base + 3 + int32(k)
			pl.linkNext[l], pl.waitF[p] = pl.waitF[p], l
			u.pending++
		}
	}
	for k, p := range u.srcP[:u.nSrcP] {
		if !pl.pprf[p].computed {
			l := base + 6 + int32(k)
			pl.linkNext[l], pl.waitP[p] = pl.waitP[p], l
			u.pending++
		}
	}
	if u.pending == 0 {
		pl.readyList = insertPos(pl.readyList, pos)
	}
}

// unlink takes a squashed uop that is still waiting off the consumer
// stacks of its sources that are not ready. Squashes undo youngest
// first and dispatch links in seq order, so the uop's links are the
// tops of those stacks; popping each class's sources in reverse
// dispatch order keeps that true when a uop reads a register twice.
func (pl *Pipeline) unlink(u *uop) {
	for k := int(u.nSrcI) - 1; k >= 0; k-- {
		if p := u.srcI[k]; !pl.physI[p].ready {
			pl.waitI[p] = pl.linkNext[pl.waitI[p]]
		}
	}
	for k := int(u.nSrcF) - 1; k >= 0; k-- {
		if p := u.srcF[k]; !pl.physF[p].ready {
			pl.waitF[p] = pl.linkNext[pl.waitF[p]]
		}
	}
	for k := int(u.nSrcP) - 1; k >= 0; k-- {
		if p := u.srcP[k]; !pl.pprf[p].computed {
			pl.waitP[p] = pl.linkNext[pl.waitP[p]]
		}
	}
}

// applyPredication decides how a guarded non-branch uop is handled:
// select micro-op (baseline), or the paper's selective cancellation /
// unguarding when the predicate scheme is active and the PPRF entry is
// computed or confidently predicted.
func (pl *Pipeline) applyPredication(u *uop) {
	if pl.cfg.Scheme == config.SchemePredicate && pl.cfg.Predication == config.PredicationSelective {
		e := &pl.pprf[u.qpPhys]
		usable := e.computed || e.conf
		if usable {
			if !e.computed {
				u.usedSpec = true
				if e.robPtr == -1 {
					e.robPtr = u.seq
				}
			}
			if e.val {
				u.unguarded = true
			} else {
				u.canceled = true
				if u.st.isCompare && u.in.CType == isa.CmpUnc {
					// A nullified unc compare still clears both
					// destinations: keep it executable.
					u.uncFalse = true
				}
			}
			return
		}
	}
	u.selectOp = true
}

// renameCompare renames the two predicate destinations and records
// RMW semantics and predicted values; c is the uop's cold state.
func (pl *Pipeline) renameCompare(u *uop, c *uopCold) {
	in := u.in
	// norm compares under a select-op guard, and all and/or compares,
	// may leave their destinations unwritten: the computed result is
	// then the old value (read-modify-write).
	rmw := in.CType == isa.CmpAnd || in.CType == isa.CmpOr ||
		(in.CType == isa.CmpNorm && u.selectOp)
	for i, arch := range [2]isa.PredReg{in.P1, in.P2} {
		if arch == isa.P0 {
			continue
		}
		d := &u.pDests[i]
		d.arch = arch
		d.valid = true
		d.rmw = rmw
		d.oldP = pl.ratP[arch]
		if rmw {
			u.addSrcP(d.oldP)
		}
		d.newP = pl.allocP()
		e := &pl.pprf[d.newP]
		*e = pprfEntry{computed: false, robPtr: -1}
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
			u.usedSpec = true
			if e.robPtr == -1 {
				e.robPtr = u.seq
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
		newPC = u.in.Target
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
	pl.physI[p] = physReg{}
	return p
}

func (pl *Pipeline) allocF() int32 {
	n := len(pl.freeF) - 1
	p := pl.freeF[n]
	pl.freeF = pl.freeF[:n]
	pl.physF[p] = physRegF{}
	return p
}

func (pl *Pipeline) allocP() int32 {
	n := len(pl.freeP) - 1
	p := pl.freeP[n]
	pl.freeP = pl.freeP[:n]
	return p
}

func (pl *Pipeline) acquireIQ(u *uop) {
	switch u.class {
	case classInt, classMem:
		pl.intIQ++
	case classFP:
		pl.fpIQ++
	case classBr:
		pl.brIQ++
	}
}

// trackMemQueues counts an effective load in the load queue and puts an
// effective store, at window position pos, on the store list.
func (pl *Pipeline) trackMemQueues(u *uop, pos int) {
	if u.canceled {
		return
	}
	if u.st.isLoad {
		pl.ldQ++
	}
	if u.st.isStore {
		pl.stores = append(pl.stores, pos)
	}
}
