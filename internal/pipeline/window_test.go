package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/isa"
	"repro/internal/program"
)

// buildStoreDiamond is a loop whose LCG-driven branch picks one of two
// stores, so mispredictions squash stores that have just joined the
// store FIFO.
func buildStoreDiamond(iters int64) *program.Program {
	b := program.NewBuilder("storediamond")
	b.MovI(8, 99991).MovI(2, 0).MovI(3, iters).MovI(5, 0x8000)
	b.Label("loop").
		MulI(8, 8, 6364136223846793005).AddI(8, 8, 1442695040888963407).
		ShrI(9, 8, 33).AndI(9, 9, 1).
		CmpI(isa.RelNE, isa.CmpUnc, 12, 13, 9, 0).
		G(12).Br("else").
		Store(5, 0, 8).
		Br("join").
		Label("else").Store(5, 8, 2).
		Label("join").
		Load(6, 5, 0).
		AddI(2, 2, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 10, 11, 2, 3).
		G(10).Br("loop").
		Halt()
	return b.Program()
}

// TestStoreFIFORefillsAfterAFlushEmptiesIt runs stores past
// mispredicted branches until a flush has emptied the store FIFO and
// rename has refilled it from index 0, co-simulated and with the
// scheduling invariants checked every cycle.
func TestStoreFIFORefillsAfterAFlushEmptiesIt(t *testing.T) {
	p := buildStoreDiamond(400)
	for _, s := range allSchemes() {
		pl, err := New(config.Default().WithScheme(s), p)
		if err != nil {
			t.Fatal(err)
		}
		pl.CoSim = emulator.New(p)
		emptied, refilled := 0, 0
		for !pl.halted {
			live := pl.storeTail - pl.storeHead
			flushes := pl.Stats.ExecFlushes + pl.Stats.PredFlushes
			pl.step()
			if pl.CoSimErr != nil {
				t.Fatalf("%v, cycle %d: %v", s, pl.cycle, pl.CoSimErr)
			}
			if err := checkSchedule(pl); err != nil {
				t.Fatalf("%v, cycle %d: %v", s, pl.cycle, err)
			}
			now := pl.storeTail - pl.storeHead
			switch {
			case live > 0 && now == 0 && pl.Stats.ExecFlushes+pl.Stats.PredFlushes > flushes:
				emptied++
			case live == 0 && now > 0 && emptied > 0:
				refilled++
			}
		}
		if emptied == 0 || refilled == 0 {
			t.Errorf("%v: %d flushes emptied the store FIFO and %d refills followed, want both", s, emptied, refilled)
		}
	}
}

// predicatePipeline steps the predicate scheme on the if-converted hard
// loop, co-simulated, until keep reports the window is in the state a
// test wants.
func predicatePipeline(t *testing.T, keep func(pl *Pipeline) bool) *Pipeline {
	t.Helper()
	plain := buildHardLoop(1 << 20)
	res, err := ifconvert.Convert(plain, ifconvert.Options{MaxBlockLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(config.Default().WithScheme(config.SchemePredicate), res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	pl.CoSim = emulator.New(res.Prog)
	for !keep(pl) {
		if pl.cycle > 200000 {
			t.Fatal("the window never reached the state the test needs")
		}
		pl.step()
		if pl.CoSimErr != nil {
			t.Fatal(pl.CoSimErr)
		}
	}
	return pl
}

// mispredictedCompare returns a compare uop whose first destination is
// a free PPRF entry holding a speculative value its result contradicts,
// with its first speculative consumer recorded as seq.
func mispredictedCompare(pl *Pipeline, seq int64) *uop {
	p := pl.freeP[len(pl.freeP)-1] // stays on the free list
	e := &pl.pprf[p]
	e.val, e.computed, e.robPtr = true, false, seq
	pl.ppWater = max(pl.ppWater, seq)
	u := &uop{}
	u.isCompare, u.cmpLkValid = true, true
	u.pValid[0] = true
	u.pDests[0] = predDest{newP: p, oldP: p, arch: 1, predVal: true}
	u.resP[0] = false
	return u
}

// finish runs a pipeline a while past a hand-made writeback,
// co-simulated with the invariants checked, and fails on the first
// divergence.
func finish(t *testing.T, pl *Pipeline) {
	t.Helper()
	if err := checkSchedule(pl); err != nil {
		t.Fatal(err)
	}
	for end := pl.Stats.Committed + 3000; pl.Stats.Committed < end; {
		pl.step()
		if pl.CoSimErr != nil {
			t.Fatal(pl.CoSimErr)
		}
		if err := checkSchedule(pl); err != nil {
			t.Fatalf("cycle %d: %v", pl.cycle, err)
		}
	}
}

// TestPredicateFlushFromOldestROBEntry flushes from a first speculative
// consumer at the ROB's head, the lower end of compareWriteback's
// binary search: the whole window goes, fetch restarts at the
// consumer, and the run goes on matching the emulator.
func TestPredicateFlushFromOldestROBEntry(t *testing.T) {
	pl := predicatePipeline(t, func(pl *Pipeline) bool { return pl.mid-pl.head >= 16 && pl.tail > pl.mid })
	consumer := pl.slot(pl.head)
	seq, pc := consumer.seq, int(consumer.pc)
	flushes := pl.Stats.PredFlushes
	if !pl.compareWriteback(mispredictedCompare(pl, seq)) {
		t.Fatal("compareWriteback found no consumer at the ROB head")
	}
	if pl.Stats.PredFlushes != flushes+1 || pl.tail != pl.head || pl.mid != pl.head || pl.fetchPC != pc {
		t.Fatalf("after the flush: %d flushes (was %d), window [%d,%d,%d), fetch at %d; want one more flush, an empty window at %d and fetch at %d",
			pl.Stats.PredFlushes, flushes, pl.head, pl.mid, pl.tail, pl.fetchPC, pl.head, pc)
	}
	finish(t, pl)
}

// TestSquashedConsumerFlushesNothing records as first consumer a seq
// that an older flush squashed, between two live ROB entries: the
// search finds no uop, and compareWriteback flushes nothing.
func TestSquashedConsumerFlushesNothing(t *testing.T) {
	gap := int64(-1)
	pl := predicatePipeline(t, func(pl *Pipeline) bool {
		for i := pl.head; i+1 < pl.mid; i++ {
			if s := pl.slot(i).seq; pl.slot(i+1).seq > s+1 {
				gap = s + 1
				return true
			}
		}
		return false
	})
	head, mid, tail := pl.head, pl.mid, pl.tail
	st := pl.Stats
	if pl.compareWriteback(mispredictedCompare(pl, gap)) {
		t.Fatalf("compareWriteback flushed from squashed seq %d", gap)
	}
	if pl.head != head || pl.mid != mid || pl.tail != tail || pl.Stats != st {
		t.Fatalf("a search that found nothing changed the window or the statistics")
	}
	finish(t, pl)
}

// TestGHRRepairOnAndOff runs the predicate scheme with the compare
// GHR repair on and off (the ghr.repair knob), co-simulated and with
// the push count held to the window walk every cycle. Mispredicted
// compares must occur, and the repair must change the run.
func TestGHRRepairOnAndOff(t *testing.T) {
	plain := buildHardLoop(1500)
	res, err := ifconvert.Convert(plain, ifconvert.Options{MaxBlockLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	var stats [2]Stats
	for i, off := range []bool{false, true} {
		cfg := config.Default().WithScheme(config.SchemePredicate)
		cfg.DisableGHRRepair = off
		pl := stepChecked(t, "ghr repair off="+map[bool]string{false: "no", true: "yes"}[off], cfg, res.Prog, 1<<40)
		if !pl.halted || pl.Stats.PredMispredicts == 0 {
			t.Fatalf("repair off=%v: halted %v with %d mispredicted predicates, want a halt and some", off, pl.halted, pl.Stats.PredMispredicts)
		}
		stats[i] = pl.Stats
	}
	if stats[0] == stats[1] {
		t.Error("turning the GHR repair off changed nothing")
	}
}

// TestUopStateNeedsNoZeroing fills every window slot's uopState with
// garbage before the run. Fetch zeroes only the uopFlags, so a field
// read before this uop wrote it would carry the garbage into the
// results: the statistics must match a clean run's, co-simulated.
func TestUopStateNeedsNoZeroing(t *testing.T) {
	hard := buildHardLoop(600)
	res, err := ifconvert.Convert(hard, ifconvert.Options{MaxBlockLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	junk := uopState{
		brGHRSnap: ^uint64(0), pGHRSnap: ^uint64(0), pushOrd: 77, predTarget: 3,
		newPhys: 3, oldPhys: 5, qpPhys: 2,
		srcI: [3]int32{5, 6, 7}, srcF: [3]int32{5, 6, 7}, srcP: [3]int32{1, 2, 3},
		pDests:    [2]predDest{{newP: 1, oldP: 2, arch: 1, rmw: true, predVal: true}, {newP: 3, oldP: 4, arch: 2, rmw: true, predVal: true}},
		doneCycle: 0, resI: 12345, resF: 1.5, memAddr: 0x1234, stBits: 99, actualTgt: 7,
		actualTaken: true, qpVal: true, resP: [2]bool{true, true},
	}
	for _, p := range []*program.Program{hard, res.Prog, buildMemLoop(300), buildStoreDiamond(300)} {
		for _, s := range allSchemes() {
			clean := run(t, config.Default().WithScheme(s), p)
			pl, err := New(config.Default().WithScheme(s), p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pl.win {
				pl.win[i].uopState = junk
			}
			pl.CoSim = emulator.New(p)
			if err := pl.Run(5_000_000); err != nil {
				t.Fatalf("%s/%v: %v", p.Name, s, err)
			}
			if pl.Stats != clean.Stats {
				t.Errorf("%s/%v: a window of garbage changed the run:\n got  %+v\n want %+v", p.Name, s, pl.Stats, clean.Stats)
			}
		}
	}
}
