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
	perc *Perceptron
	lht  *LocalHistoryTable
}

// NewTwoLevel builds the second-level predictor with the given byte
// budget and history lengths. lhtBits sizes the local history table.
func NewTwoLevel(bytes int, ghrBits, lhrBits, lhtBits uint) *TwoLevel {
	return &TwoLevel{
		perc: NewPerceptronBudget(bytes, ghrBits, lhrBits),
		lht:  NewLocalHistoryTable(lhtBits, lhrBits),
	}
}

// SetIdeal enables no-aliasing mode (§4.2 idealization).
func (t *TwoLevel) SetIdeal(on bool) { t.perc.SetIdeal(on) }

// SizeBytes returns the perceptron storage budget.
func (t *TwoLevel) SizeBytes() int { return t.perc.SizeBytes() }

// TwoLevelLookup records one prediction for later training/undo.
type TwoLevelLookup struct {
	PC      uint64
	Taken   bool
	Row     int
	Out     PerceptronOutput
	GHR     uint64
	LHR     uint64
	prevLHR uint64
}

// Predict predicts the branch at pc under global history ghr and pushes
// the prediction into the branch's local history speculatively.
func (t *TwoLevel) Predict(pc uint64, ghr uint64) TwoLevelLookup {
	lhr := t.lht.Get(pc)
	row := t.perc.Index(pc)
	out := t.perc.PredictRow(row, ghr, lhr)
	lk := TwoLevelLookup{PC: pc, Taken: out.Taken, Row: row, Out: out, GHR: ghr, LHR: lhr}
	lk.prevLHR = t.lht.Push(pc, out.Taken)
	return lk
}

// Train updates the perceptron with the resolved outcome and corrects
// the speculative local-history bit if the prediction was wrong.
func (t *TwoLevel) Train(lk TwoLevelLookup, taken bool) {
	t.perc.TrainRow(lk.Row, lk.GHR, lk.LHR, taken, lk.Out)
	if taken != lk.Taken {
		next := lk.prevLHR << 1
		if taken {
			next |= 1
		}
		t.lht.Set(lk.PC, next)
	}
}

// Undo rolls back the speculative local-history push of a squashed
// prediction.
func (t *TwoLevel) Undo(lk TwoLevelLookup) {
	t.lht.Set(lk.PC, lk.prevLHR)
}
