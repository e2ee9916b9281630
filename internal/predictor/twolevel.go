package predictor

// TwoLevel is the conventional second-level branch predictor of Table 1:
// a 148 KB perceptron over 30 bits of global and 10 bits of local
// history, indexed by branch PC. It pairs with a fast gshare first
// level; the pipeline compares the two predictions at rename and
// flushes the front-end on disagreement (the Alpha 21264 / Power4
// override organization).
//
// The caller owns the speculative global history; this type owns the
// local history table, with speculative push + undo/correct in the same
// style as the predicate predictor (package core) so both schemes play
// by identical history rules.
type TwoLevel struct {
	perc  *Perceptron
	lht   *LocalHistoryTable
	ideal bool
}

// NewTwoLevel builds the second-level predictor with the given byte
// budget and history lengths. lhtBits sizes the local history table.
// With ideal set, every site gets a private perceptron row (the §4.2
// no-aliasing idealization).
func NewTwoLevel(bytes int, ghrBits, lhrBits, lhtBits uint, ideal bool) *TwoLevel {
	return &TwoLevel{
		perc:  NewPerceptronBudget(bytes, ghrBits, lhrBits),
		lht:   NewLocalHistoryTable(lhtBits, lhrBits),
		ideal: ideal,
	}
}

// SizeBytes returns the perceptron storage budget.
func (t *TwoLevel) SizeBytes() int { return t.perc.SizeBytes() }

// TwoLevelSite is a static conditional branch's place in the predictor:
// its perceptron row and its local history slot.
type TwoLevelSite struct {
	row, slot int32
}

// Site builds the site of the branch at pc. In ideal mode each call
// allocates a private row, so build one site per static branch.
func (t *TwoLevel) Site(pc uint64) TwoLevelSite {
	s := TwoLevelSite{slot: int32(t.lht.Slot(pc))}
	if t.ideal {
		s.row = int32(t.perc.PrivateRow())
	} else {
		s.row = int32(t.perc.Row(pc))
	}
	return s
}

// TwoLevelLookup records one prediction for later training/undo.
type TwoLevelLookup struct {
	site    TwoLevelSite
	Taken   bool
	Out     PerceptronOutput
	GHR     uint64
	LHR     uint64
	prevLHR uint64
}

// Predict predicts the branch at site s under global history ghr and
// pushes the prediction into the branch's local history speculatively.
func (t *TwoLevel) Predict(s TwoLevelSite, ghr uint64) TwoLevelLookup {
	lhr := t.lht.Get(int(s.slot))
	out := t.perc.PredictRow(int(s.row), ghr, lhr)
	lk := TwoLevelLookup{site: s, Taken: out.Taken, Out: out, GHR: ghr, LHR: lhr}
	lk.prevLHR = t.lht.Push(int(s.slot), out.Taken)
	return lk
}

// Train updates the perceptron with the resolved outcome and corrects
// the speculative local-history bit if the prediction was wrong.
func (t *TwoLevel) Train(lk TwoLevelLookup, taken bool) {
	t.perc.TrainRow(int(lk.site.row), lk.GHR, lk.LHR, taken, lk.Out)
	if taken != lk.Taken {
		next := lk.prevLHR << 1
		if taken {
			next |= 1
		}
		t.lht.Set(int(lk.site.slot), next)
	}
}

// Undo rolls back the speculative local-history push of a squashed
// prediction.
func (t *TwoLevel) Undo(lk TwoLevelLookup) {
	t.lht.Set(int(lk.site.slot), lk.prevLHR)
}
