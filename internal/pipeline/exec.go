package pipeline

import (
	"math"

	"repro/internal/emulator"
	"repro/internal/isa"
)

// issue walks the ready list oldest-first and issues each uop whose
// class still has a free function unit this cycle (a load also waits
// for loadMayIssue): it computes the result functionally, schedules the
// completion and moves the uop to the in-flight list.
func (pl *Pipeline) issue() {
	// Function units free this cycle, by class. A ready uop is never
	// classNone, so masking its class only drops the bounds check.
	free := [4]int{pl.cfg.IntALUs, pl.cfg.FPALUs, pl.cfg.MemPorts, pl.cfg.BrUnits}
	l := pl.readyList()
	kept := 0
	for _, pos := range l {
		u := pl.slot(pos)
		fu := &free[u.class&3]
		if *fu == 0 || (u.isLoad && !pl.loadMayIssue(u)) {
			l[kept] = pos
			kept++
			continue
		}
		pl.execute(u)
		u.issued = true
		pl.releaseIQ(u)
		*fu--
		pl.nInflight = insertPos(pl.inflight, pl.nInflight, pos)
	}
	pl.nReady = kept
}

// loadMayIssue enforces conservative memory disambiguation: a load
// issues only after every older store has issued (addresses and guard
// values known) and no older effective store overlaps the load's
// address with a different base (exact matches forward). It walks the
// store list, oldest first.
func (pl *Pipeline) loadMayIssue(u *uop) bool {
	addr := pl.effAddr(u)
	for _, pos := range pl.storeList() {
		s := pl.slot(pos)
		if s.seq >= u.seq {
			break
		}
		if !s.issued {
			return false
		}
		if !s.qpVal {
			continue // nullified store writes nothing
		}
		if s.memAddr == addr {
			continue // exact match: forwarded at execute
		}
		if overlaps(s.memAddr, addr) {
			return false // partial overlap: wait until the store commits
		}
	}
	return true
}

func overlaps(a, b uint64) bool {
	return a < b+8 && b < a+8
}

// effAddr computes a memory uop's effective address from its (ready)
// base register.
func (pl *Pipeline) effAddr(u *uop) uint64 {
	base := pl.physI[pl.addrPhys(u)].val
	return uint64(base + u.imm)
}

// addrPhys returns the physical register holding the address base
// (always the first integer source of a memory uop).
func (pl *Pipeline) addrPhys(u *uop) int32 { return u.srcI[0] }

// qpValue resolves the guard value at execute time.
func (pl *Pipeline) qpValue(u *uop) bool {
	switch {
	case u.unguarded:
		return true
	case u.qpPhys < 0:
		return true
	default:
		return pl.pprf[u.qpPhys].val
	}
}

// execute computes a uop's result and schedules its completion cycle.
// Values mirror emulator semantics exactly (shared helpers), keeping
// the pipeline value-accurate for co-simulation.
func (pl *Pipeline) execute(u *uop) {
	lat := int(u.lat)
	u.qpVal = pl.qpValue(u)

	switch {
	case u.isCompare:
		pl.execCompare(u)
	case u.isBranch:
		pl.execBranch(u)
	case u.isLoad:
		lat += pl.execLoad(u)
	case u.isStore:
		pl.execStore(u)
	default:
		pl.execALU(u)
	}
	u.doneCycle = pl.cycle + uint64(lat)
}

func (pl *Pipeline) execALU(u *uop) {
	if u.selectOp && !u.qpVal {
		// Nullified select micro-op: result is the previous value.
		if u.dKind == destFP {
			u.resF = pl.physF[u.oldPhys].val
		} else if u.dKind == destInt {
			u.resI = pl.physI[u.oldPhys].val
		}
		return
	}
	physI, physF := pl.physI, pl.physF
	switch u.op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr:
		u.resI = emulator.ExecALU(u.op, physI[u.srcI[0]].val, physI[u.srcI[1]].val)
	case isa.OpAddI, isa.OpSubI, isa.OpMulI, isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI:
		u.resI = emulator.ExecImmALU(u.op, physI[u.srcI[0]].val, u.imm)
	case isa.OpMov:
		u.resI = physI[u.srcI[0]].val
	case isa.OpMovI:
		u.resI = u.imm
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		u.resF = emulator.ExecFPALU(u.op, physF[u.srcF[0]].val, physF[u.srcF[1]].val)
	case isa.OpFMov:
		u.resF = physF[u.srcF[0]].val
	case isa.OpFMovI:
		u.resF = math.Float64frombits(uint64(u.imm))
	case isa.OpFCvtIF:
		u.resF = float64(physI[u.srcI[0]].val)
	case isa.OpFCvtFI:
		u.resI = int64(physF[u.srcF[0]].val)
	}
}

func (pl *Pipeline) execCompare(u *uop) {
	var out isa.PredicateOutcome
	if u.uncFalse {
		// Cancelled unc compare: both destinations cleared.
		out = isa.PredicateOutcome{Write1: true, Write2: true}
	} else {
		var cond bool
		switch u.op {
		case isa.OpCmp:
			cond = u.rel.Eval(pl.physI[u.srcI[0]].val, pl.physI[u.srcI[1]].val)
		case isa.OpCmpI:
			cond = u.rel.Eval(pl.physI[u.srcI[0]].val, u.imm)
		case isa.OpFCmp:
			cond = u.rel.EvalFloat(pl.physF[u.srcF[0]].val, pl.physF[u.srcF[1]].val)
		}
		out = u.ctype.Apply(u.qpVal, cond)
	}
	writes := [2]bool{out.Write1, out.Write2}
	vals := [2]bool{out.Val1, out.Val2}
	for i := 0; i < 2; i++ {
		d := &u.pDests[i]
		if !u.pValid[i] {
			u.resP[i] = vals[i] // value for training even when the dest is p0
			continue
		}
		if writes[i] {
			u.resP[i] = vals[i]
		} else {
			u.resP[i] = pl.pprf[d.oldP].val // RMW: unwritten keeps old value
		}
	}
}

func (pl *Pipeline) execBranch(u *uop) {
	switch u.op {
	case isa.OpBr:
		u.actualTaken = u.qpVal
		u.actualTgt = u.target
	case isa.OpCall:
		u.actualTaken = true
		u.actualTgt = u.target
		u.resI = int64(u.pc) + 1
	case isa.OpRet, isa.OpBrInd:
		u.actualTaken = u.qpVal
		u.actualTgt = int(pl.physI[u.srcI[0]].val)
	}
}

// execLoad performs the memory read (with store forwarding) and returns
// the extra latency from the cache hierarchy.
func (pl *Pipeline) execLoad(u *uop) int {
	u.memAddr = pl.effAddr(u)
	if u.selectOp && !u.qpVal {
		// Nullified load: previous value, no memory access.
		if u.op == isa.OpFLoad {
			u.resF = pl.physF[u.oldPhys].val
		} else {
			u.resI = pl.physI[u.oldPhys].val
		}
		return 0
	}
	var bits uint64
	if fw, ok := pl.forward(u); ok {
		bits = fw
		pl.Stats.LoadForwards++
	} else {
		bits = pl.mem.Read64(u.memAddr)
	}
	if u.op == isa.OpFLoad {
		u.resF = math.Float64frombits(bits)
	} else {
		u.resI = int64(bits)
	}
	return pl.hier.DataAccess(u.memAddr, pl.cycle, false)
}

// forward searches the older stores of the store list youngest-first
// for an exact address match and returns the forwarded bits.
func (pl *Pipeline) forward(u *uop) (uint64, bool) {
	l := pl.storeList()
	for k := len(l) - 1; k >= 0; k-- {
		s := pl.slot(l[k])
		if s.seq >= u.seq || !s.issued || !s.qpVal || s.memAddr != u.memAddr {
			continue
		}
		return s.stBits, true
	}
	return 0, false
}

// execStore latches the address and data; memory is written at commit.
func (pl *Pipeline) execStore(u *uop) {
	u.memAddr = pl.effAddr(u)
	if u.op == isa.OpFStore {
		u.stBits = math.Float64bits(pl.physF[u.srcF[0]].val)
	} else {
		u.stBits = uint64(pl.physI[u.srcI[1]].val)
	}
}

// writeback walks the in-flight list oldest-first and completes each
// uop whose latency has elapsed: its result becomes visible in the
// physical registers and wakes the consumers waiting on them, compare
// results update the PPRF (possibly triggering a predicate-consumer
// flush), and branches verify their predictions (possibly triggering a
// branch-misprediction flush). One flush per cycle; remaining
// completions slip to the next cycle.
func (pl *Pipeline) writeback() {
	l := pl.inflightList()
	kept := 0
	for i, pos := range l {
		u := pl.slot(pos)
		if u.doneCycle > pl.cycle {
			l[kept] = pos
			kept++
			continue
		}
		u.done = true
		switch u.dKind {
		case destInt:
			r := &pl.physI[u.newPhys]
			r.val, r.ready = u.resI, true
			pl.wake(&r.wait)
		case destFP:
			r := &pl.physF[u.newPhys]
			r.val, r.ready = u.resF, true
			pl.wake(&r.wait)
		}
		if u.isCompare && pl.compareWriteback(u) ||
			u.isBranch && pl.branchWriteback(u) {
			// flushAfter trimmed the list from its tail. The flush
			// kept u, so the trim stopped past index i; the entries in
			// [kept, i] are this cycle's completions. The copy moves
			// the trimmed entries too, past the new count.
			copy(l[kept:], l[i+1:])
			pl.nInflight -= i + 1 - kept
			return
		}
	}
	pl.nInflight = kept
}

// wake empties a register's consumer stack once its value is
// published. A consumer whose last missing source this was joins the
// ready list.
func (pl *Pipeline) wake(stack *int32) {
	for l := *stack; l != noLink; l = pl.linkNext[l] {
		s := int(l / srcLinks)
		u := &pl.win[s]
		u.pending--
		if u.pending == 0 {
			// A waiting uop is in the ROB, so its position is the
			// one in [head, mid) that maps to slot s.
			pl.nReady = insertPos(pl.ready, pl.nReady, pl.head+(s-pl.head)&pl.mask)
		}
	}
	*stack = noLink
}

// compareWriteback publishes computed predicate values into the PPRF,
// clears the speculative bit, updates PEP-PA's logical predicate file,
// repairs the compare's global-history bit (§3.3) and flushes from the
// first speculative consumer when a predicate prediction was wrong.
// Reports whether a flush happened.
func (pl *Pipeline) compareWriteback(u *uop) bool {
	var flushSeq int64 = -1
	for i := 0; i < 2; i++ {
		if !u.pValid[i] {
			continue
		}
		d := &u.pDests[i]
		e := &pl.pprf[d.newP]
		mispredicted := u.cmpLkValid && !e.computed && d.predVal != u.resP[i]
		e.val = u.resP[i]
		e.computed = true
		pl.wake(&e.wait)
		pl.lastPredVal[d.arch] = u.resP[i]
		if mispredicted && e.robPtr != -1 && (flushSeq == -1 || e.robPtr < flushSeq) {
			flushSeq = e.robPtr
		}
	}
	if flushSeq == -1 {
		if u.cmpLkValid {
			pl.pred.Resolve(u.pushOrd, u.resP[0])
		}
		return false
	}
	// Flush from the first speculative consumer (§3.2: the ROB pointer
	// marks the first instruction that used the prediction).
	consumer := pl.robFind(flushSeq)
	if consumer == nil {
		return false
	}
	// A conditional branch consumer was mispredicted: its refetched
	// instance will read the computed value and commit "correct", so
	// the misprediction must be scored at recovery time.
	if consumer.isCondBr {
		pl.Stats.BranchMispred++
		pl.pendingRefetch[consumer.pc]++
	}
	pl.Stats.PredFlushes++
	pl.flushAfter(flushSeq-1, int(consumer.pc), pl.cfg.MispredictPenalty)
	if u.cmpLkValid {
		pl.pred.Resolve(u.pushOrd, u.resP[0]) // after the flush unwound younger pushes
	}
	return true
}

// robFind returns the ROB's uop with the given seq, or nil if none has
// it. Seqs increase with window position, with gaps where squashed uops
// were, so a binary search over [head, mid) finds it.
func (pl *Pipeline) robFind(seq int64) *uop {
	lo, hi := pl.head, pl.mid
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pl.slot(m).seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < pl.mid {
		if u := pl.slot(lo); u.seq == seq {
			return u
		}
	}
	return nil
}

// branchWriteback verifies a branch against the prediction it used and
// recovers on a misprediction. Reports whether a flush happened.
func (pl *Pipeline) branchWriteback(u *uop) bool {
	actualNext := u.actualNext()
	if actualNext == u.predNext() {
		return false
	}
	pl.Stats.ExecFlushes++
	pl.flushAfter(u.seq, actualNext, pl.cfg.MispredictPenalty)
	// Correct the speculative histories for this branch's own push.
	if u.pushedBrGHR {
		pl.brGHR.Restore(u.brGHRSnap)
		pl.brGHR.Push(u.actualTaken)
	}
	if u.brLkValid {
		pl.conv.Resolve(u.pGHRSnap, u.actualTaken)
	}
	return true
}
