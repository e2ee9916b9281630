package core

import "testing"

func TestDefaultConfigSize(t *testing.T) {
	p := New(DefaultConfig())
	if p.SizeBytes() > 148*1024 {
		t.Errorf("PVT size %d exceeds the 148 KB budget of Table 1", p.SizeBytes())
	}
	if p.Rows() != 148*1024/41 {
		t.Errorf("rows = %d, want %d", p.Rows(), 148*1024/41)
	}
	if p.GHRBits() != 30 {
		t.Errorf("GHR bits = %d, want 30", p.GHRBits())
	}
}

func TestTwoHashesDistinct(t *testing.T) {
	p := New(DefaultConfig())
	if s := p.Site(0x1234); s.row1 == s.row2 {
		t.Error("the two hash functions must select different rows")
	}
}

func TestLearnsComplementaryPredicates(t *testing.T) {
	// A cmp.unc writes p1 = cond and p2 = !cond. The two rows must
	// learn opposite values for a biased condition.
	p := New(DefaultConfig())
	pc := p.Site(0x40)
	var ghr uint64
	for i := 0; i < 64; i++ {
		lk := predict(p, pc, ghr)
		p.Train(lk, true, false)
		ghr = ghr<<1 | 1
	}
	lk := predict(p, pc, ghr)
	if !lk.Val1 {
		t.Error("first destination should be predicted true")
	}
	if lk.Val2 {
		t.Error("second destination should be predicted false")
	}
}

func TestConfidenceSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConfBits = 3
	p := New(cfg)
	pc := p.Site(0x80)
	lk := predict(p, pc, 0)
	if lk.Conf1 || lk.Conf2 {
		t.Error("cold entries must not be confident")
	}
	p.Undo(lk)
	// 7 correct predictions saturate a 3-bit counter.
	for i := 0; i < 7; i++ {
		lk = predict(p, pc, 0)
		p.Train(lk, lk.Val1, lk.Val2)
	}
	lk = predict(p, pc, 0)
	if !lk.Conf1 || !lk.Conf2 {
		t.Error("entries must be confident after saturation")
	}
	// One misprediction zeroes confidence.
	p.Train(lk, !lk.Val1, lk.Val2)
	lk = predict(p, pc, 0)
	if lk.Conf1 {
		t.Error("confidence must reset to zero on a misprediction")
	}
	if !lk.Conf2 {
		t.Error("the second destination's confidence must be unaffected")
	}
}

func TestLocalHistoryUndo(t *testing.T) {
	p := New(DefaultConfig())
	pc := p.Site(0x99)
	lk1 := predict(p, pc, 0)
	p.Train(lk1, true, false)
	before := p.lht.Get(int(pc.slot))
	lk2 := predict(p, pc, 0) // speculative push
	p.Undo(lk2)
	if p.lht.Get(int(pc.slot)) != before {
		t.Error("undo must restore the local history")
	}
}

func TestTrainCorrectsLocalHistoryBit(t *testing.T) {
	p := New(DefaultConfig())
	pc := p.Site(0xaa)
	lk := predict(p, pc, 0) // cold: predicts Val1 (deterministic)
	p.Train(lk, !lk.Val1, lk.Val2)
	got := p.lht.Get(int(pc.slot)) & 1
	want := uint64(0)
	if !lk.Val1 {
		want = 1
	}
	if got != want {
		t.Errorf("local history bit = %d after correction, want %d", got, want)
	}
}

func TestGlobalCorrelationLearned(t *testing.T) {
	// Condition equals GHR bit 2 — the predicate predictor must pick up
	// global correlation just like a branch perceptron would.
	p := New(DefaultConfig())
	pc := p.Site(0x4000)
	var ghr uint64
	correct := 0
	for i := 0; i < 600; i++ {
		cond := ghr>>2&1 == 1
		lk := predict(p, pc, ghr)
		if i >= 400 {
			if lk.Val1 == cond {
				correct++
			}
		}
		p.Train(lk, cond, !cond)
		ghr = ghr<<1 | uint64(i&1)
	}
	if correct < 190 {
		t.Errorf("global correlation accuracy = %d/200", correct)
	}
}

func TestIdealModeNoAliasing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SizeBytes = 41 * 2 // absurdly small: guaranteed aliasing if real
	cfg.Ideal = true
	p := New(cfg)
	a, b := p.Site(0x1000), p.Site(0x2000)
	rows := map[int32]bool{a.row1: true, a.row2: true, b.row1: true, b.row2: true}
	if len(rows) != 4 {
		t.Errorf("ideal mode must give 4 distinct rows, got %d", len(rows))
	}
	// Training must work on grown rows without panicking.
	p.Train(predict(p, b, 0), true, false)
}

func TestLookupCarriesHistories(t *testing.T) {
	p := New(DefaultConfig())
	s := p.Site(0x777)
	lk := predict(p, s, 0x3f)
	if lk.GHR != 0x3f {
		t.Errorf("lookup GHR = %#x, want 0x3f", lk.GHR)
	}
	if lk.site != s {
		t.Errorf("lookup site = %+v, want %+v", lk.site, s)
	}
}

func TestSplitPVTDistinctHalves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitPVT = true
	p := New(cfg)
	half := int32(p.Rows() / 2)
	for _, pc := range []uint64{0x10, 0x999, 0x123456} {
		s := p.Site(pc)
		if s.row1 >= half {
			t.Errorf("pc %#x: first destination row %d not in lower half", pc, s.row1)
		}
		if s.row2 < half {
			t.Errorf("pc %#x: second destination row %d not in upper half", pc, s.row2)
		}
	}
}

func TestSplitPVTStillLearns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitPVT = true
	p := New(cfg)
	pc := p.Site(0x500)
	for i := 0; i < 64; i++ {
		lk := predict(p, pc, 0)
		p.Train(lk, true, false)
	}
	lk := predict(p, pc, 0)
	if !lk.Val1 || lk.Val2 {
		t.Errorf("split PVT failed to learn: %v %v", lk.Val1, lk.Val2)
	}
}

// predict is Predict into a fresh lookup.
func predict(p *Predictor, s Site, ghr uint64) *Lookup {
	lk := new(Lookup)
	p.Predict(lk, s, ghr)
	return lk
}
