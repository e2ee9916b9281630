package peppa

import "testing"

func TestSizeBudget(t *testing.T) {
	p := New(DefaultConfig())
	sz := p.SizeBytes()
	if sz < 140*1024 || sz > 148*1024 {
		t.Errorf("size = %d bytes, want ~144 KB (Table 1)", sz)
	}
}

func TestLearnsBiasedBranch(t *testing.T) {
	p := New(DefaultConfig())
	pc := p.Site(0x100)
	for i := 0; i < 32; i++ {
		lk := p.Predict(pc, false)
		p.Update(&lk, true)
	}
	if lk := p.Predict(pc, false); !lk.Taken {
		t.Error("failed to learn always-taken branch")
	}
}

func TestPredicateSelectsHistory(t *testing.T) {
	// Branch outcome equals the previous predicate value: PEP-PA's
	// target case. Under prevPred=true the branch is always taken;
	// under prevPred=false it never is. Each predicate value selects a
	// separate local history, so both cases must be learned.
	p := New(DefaultConfig())
	pc := p.Site(0x200)
	for i := 0; i < 200; i++ {
		prev := i%3 == 0
		lk := p.Predict(pc, prev)
		p.Update(&lk, prev)
	}
	if lk := p.Predict(pc, true); !lk.Taken {
		t.Error("prevPred=true should predict taken")
	}
	probe := p.Predict(pc, true)
	p.Undo(&probe) // clean up the probe
	if lk := p.Predict(pc, false); lk.Taken {
		t.Error("prevPred=false should predict not-taken")
	}
}

func TestSpeculativeHistoryUndo(t *testing.T) {
	p := New(DefaultConfig())
	pc := p.Site(0x300)
	lk1 := p.Predict(pc, false)
	before := p.lht[lk1.lht][lk1.Sel]
	lk2 := p.Predict(pc, false)
	p.Undo(&lk2)
	if p.lht[lk1.lht][lk1.Sel] != before {
		t.Error("undo did not restore the speculative history push")
	}
}

func TestUpdateCorrectsWrongSpeculativeBit(t *testing.T) {
	p := New(DefaultConfig())
	pc := p.Site(0x400)
	lk := p.Predict(pc, false) // predicts not-taken initially, pushes 0
	p.Update(&lk, true)        // actual outcome: taken
	// The history must now end in the corrected bit (1).
	if p.lht[lk.lht][lk.Sel]&1 != 1 {
		t.Error("misprediction must rewrite the speculative history bit")
	}
}

func TestLearnsHistoryPattern(t *testing.T) {
	// Period-2 alternating branch: local history makes it predictable.
	p := New(DefaultConfig())
	pc := p.Site(0x500)
	taken := false
	for i := 0; i < 2000; i++ {
		lk := p.Predict(pc, false)
		p.Update(&lk, taken)
		taken = !taken
	}
	correct := 0
	for i := 0; i < 100; i++ {
		lk := p.Predict(pc, false)
		if lk.Taken == taken {
			correct++
		}
		p.Update(&lk, taken)
		taken = !taken
	}
	if correct < 95 {
		t.Errorf("alternating branch accuracy = %d/100", correct)
	}
}
