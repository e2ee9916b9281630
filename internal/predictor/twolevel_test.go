package predictor

import "testing"

func TestTwoLevelSizeBudget(t *testing.T) {
	tl := NewTwoLevel(148*1024, 30, 10, 12, false)
	if tl.SizeBytes() > 148*1024 {
		t.Errorf("size %d exceeds 148 KB budget", tl.SizeBytes())
	}
}

func TestTwoLevelLearnsBias(t *testing.T) {
	tl := NewTwoLevel(148*1024, 30, 10, 12, false)
	pc := tl.Site(0x1000)
	for i := 0; i < 64; i++ {
		lk := tl.Predict(pc, 0)
		tl.Train(lk, true)
	}
	if lk := tl.Predict(pc, 0); !lk.Taken {
		t.Error("failed to learn an always-taken branch")
	}
}

func TestTwoLevelLearnsLocalPattern(t *testing.T) {
	// Period-4 pattern: T T T N. Local history is required because the
	// test keeps the global history constant.
	tl := NewTwoLevel(148*1024, 30, 10, 12, false)
	pc := tl.Site(0x2040)
	outcome := func(i int) bool { return i%4 != 3 }
	for i := 0; i < 4000; i++ {
		lk := tl.Predict(pc, 0)
		tl.Train(lk, outcome(i))
	}
	correct := 0
	for i := 4000; i < 4200; i++ {
		lk := tl.Predict(pc, 0)
		if lk.Taken == outcome(i) {
			correct++
		}
		tl.Train(lk, outcome(i))
	}
	if correct < 190 {
		t.Errorf("period-4 accuracy = %d/200", correct)
	}
}

func TestTwoLevelUndoRestoresLocalHistory(t *testing.T) {
	tl := NewTwoLevel(1024, 8, 4, 6, false)
	pc := tl.Site(0x30)
	lk1 := tl.Predict(pc, 0)
	tl.Train(lk1, lk1.Taken)
	before := tl.lht.Get(int(pc.slot))
	lk2 := tl.Predict(pc, 0) // speculative push
	tl.Undo(lk2)
	if tl.lht.Get(int(pc.slot)) != before {
		t.Error("undo did not restore local history")
	}
}

func TestTwoLevelTrainCorrectsWrongBit(t *testing.T) {
	tl := NewTwoLevel(1024, 8, 4, 6, false)
	pc := tl.Site(0x40)
	lk := tl.Predict(pc, 0) // cold: predicts taken (sum 0 >= 0)
	tl.Train(lk, !lk.Taken)
	want := uint64(0)
	if !lk.Taken {
		want = 1
	}
	if got := tl.lht.Get(int(pc.slot)) & 1; got != want {
		t.Errorf("history bit after mispredict correction = %d, want %d", got, want)
	}
}

func TestTwoLevelIdealMode(t *testing.T) {
	tl := NewTwoLevel(41*2, 30, 10, 6, true) // 2 rows: heavy aliasing if real
	a, b := tl.Site(0x100), tl.Site(0x200)
	for i := 0; i < 64; i++ {
		lk := tl.Predict(a, 0)
		tl.Train(lk, true)
		lk = tl.Predict(b, 0)
		tl.Train(lk, false)
	}
	if lk := tl.Predict(a, 0); !lk.Taken {
		t.Error("ideal mode: pc 0x100 should predict taken")
	}
	if lk := tl.Predict(b, 0); lk.Taken {
		t.Error("ideal mode: pc 0x200 should predict not-taken")
	}
}

func TestHistorySetBit(t *testing.T) {
	h := History{N: 8}
	for i := 0; i < 8; i++ {
		h.Push(false)
	}
	h.SetBit(3, true)
	if !h.Bit(3) || h.Bit(2) || h.Bit(4) {
		t.Errorf("SetBit wrote wrong position: %08b", h.Bits)
	}
	h.SetBit(3, false)
	if h.Bits != 0 {
		t.Errorf("SetBit clear failed: %08b", h.Bits)
	}
	h.SetBit(99, true) // out of range: no-op
	if h.Bits != 0 {
		t.Error("out-of-range SetBit must be a no-op")
	}
}
