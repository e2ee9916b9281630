// Package peppa implements the PEP-PA branch predictor of August et al.
// (HPCA 1997), the comparator scheme evaluated in §4.3 / Figure 6a of
// Quiñones et al. (HPCA 2007): a local-history branch predictor that
// correlates with the PREVIOUS definition of the branch's guarding
// predicate. The prior predicate value selects between one of two local
// histories per static branch, both for reading and for updating.
//
// The paper models a 144 KB PEP-PA with 14-bit local histories; the
// predictor was conceived for in-order pipelines, and on an out-of-order
// core the out-of-order writing of predicate registers can select the
// wrong local history — the effect §4.3 observes.
package peppa

import "repro/internal/predictor"

// Config sizes the predictor.
type Config struct {
	LHTEntries int  // per-branch entries, each holding two local histories
	LHRBits    uint // local history length (paper: 14)
	PHTBits    uint // log2 of pattern history table entries
}

// DefaultConfig returns the paper's 144 KB configuration: a 16 K-entry
// pattern table (4 KB of 2-bit counters) plus a 40960-entry local
// history table with two 14-bit histories per entry (140 KB).
func DefaultConfig() Config {
	return Config{LHTEntries: 40960, LHRBits: 14, PHTBits: 14}
}

// Predictor is a PEP-PA predictor instance.
type Predictor struct {
	cfg Config
	// lht[i][sel] is the local history for entry i under predicate
	// value sel (0 = previous predicate false, 1 = true).
	lht [][2]uint64
	pht []predictor.SatCounter
}

// New builds a PEP-PA predictor.
func New(cfg Config) *Predictor {
	return &Predictor{
		cfg: cfg,
		lht: make([][2]uint64, cfg.LHTEntries),
		pht: make([]predictor.SatCounter, 1<<cfg.PHTBits),
	}
}

// SizeBytes returns the approximate storage budget.
func (p *Predictor) SizeBytes() int {
	lhtBits := p.cfg.LHTEntries * 2 * int(p.cfg.LHRBits)
	phtBits := len(p.pht) * 2
	return (lhtBits + phtBits) / 8
}

func (p *Predictor) lhtIndex(pc uint64) int {
	return int(predictor.FoldPC(pc, 20) % uint64(p.cfg.LHTEntries))
}

func (p *Predictor) phtIndex(pc, hist uint64) int {
	mask := uint64(1)<<p.cfg.PHTBits - 1
	return int((hist ^ predictor.FoldPC(pc, p.cfg.PHTBits)) & mask)
}

// Lookup describes one prediction; the pipeline stores it with the
// in-flight branch and passes it back to Update/Undo.
type Lookup struct {
	Taken   bool
	PC      uint64
	Sel     int    // which local history was selected (0/1)
	Hist    uint64 // local history value used for the PHT index
	lhtIdx  int
	prevLHR uint64 // history before the speculative push (for Undo)
}

// Predict reads the prediction for branch pc given the previous value of
// its guarding predicate, and speculatively pushes the predicted outcome
// into the selected local history (speculative update with undo, per
// §4.1: "local histories are updated speculatively and correctly
// recovered on a branch misprediction").
func (p *Predictor) Predict(pc uint64, prevPred bool) Lookup {
	sel := 0
	if prevPred {
		sel = 1
	}
	li := p.lhtIndex(pc)
	hist := p.lht[li][sel]
	taken := p.pht[p.phtIndex(pc, hist)].Taken()

	lk := Lookup{Taken: taken, PC: pc, Sel: sel, Hist: hist, lhtIdx: li, prevLHR: hist}
	mask := uint64(1)<<p.cfg.LHRBits - 1
	next := hist << 1
	if taken {
		next |= 1
	}
	p.lht[li][sel] = next & mask
	return lk
}

// Update trains the predictor with the resolved outcome. If the
// direction prediction was wrong, the speculatively-pushed history bit
// is corrected in place.
func (p *Predictor) Update(lk Lookup, taken bool) {
	p.pht[p.phtIndex(lk.PC, lk.Hist)].Train(taken)
	if taken != lk.Taken {
		// Correct the speculative bit: rebuild from the pre-push value.
		mask := uint64(1)<<p.cfg.LHRBits - 1
		next := lk.prevLHR << 1
		if taken {
			next |= 1
		}
		p.lht[lk.lhtIdx][lk.Sel] = next & mask
	}
}

// Undo rolls back the speculative history push of a squashed prediction
// (wrong-path branch that never resolves).
func (p *Predictor) Undo(lk Lookup) {
	p.lht[lk.lhtIdx][lk.Sel] = lk.prevLHR
}
