// Package core implements the paper's primary contribution: the
// predicate predictor of Quiñones, Parcerisa & González (HPCA 2007).
//
// Instead of predicting conditional branches by their own PC, the
// scheme predicts the two predicate outputs of every COMPARE
// instruction, using the compare PC to index a perceptron vector table
// (PVT). Predictions are written into the predicate physical register
// file (PPRF) at rename; consumer branches (and, in the selective
// predication extension, consumer predicated instructions) read their
// guarding predicate's prediction — or its computed value, if the
// compare has already executed (an early-resolved branch, 100%
// accurate) — from the PPRF.
//
// §3.3 details reproduced here:
//   - a single shared PVT accessed through two hash functions, the
//     second being the first with its most significant index bit
//     inverted, so compares that produce only one useful predicate do
//     not waste half the table;
//   - the global history register is updated speculatively ONCE per
//     fetched compare (with the first predicted predicate value);
//   - each PVT entry carries a saturating confidence counter,
//     incremented on a correct prediction and zeroed on a wrong one;
//     a prediction is confident only when the counter is saturated.
//
// The pipeline owns the speculative GHR (checkpoint/restore on squash);
// this package owns the PVT, the local history table and the confidence
// counters.
package core

import "repro/internal/predictor"

// Config sizes and configures the predicate predictor.
type Config struct {
	SizeBytes int  // PVT weight budget (Table 1: 148 KB)
	GHRBits   uint // global history length (Table 1: 30)
	LHRBits   uint // local history length (Table 1: 10)
	LHTBits   uint // log2 of local-history-table entries
	ConfBits  uint // confidence counter width (saturated == confident)
	Ideal     bool // §4.2 idealization: no PVT aliasing
	// SplitPVT statically partitions the table between the two
	// predicate outputs instead of sharing it through two hash
	// functions — the alternative §3.3 argues against (it wastes the
	// space of compares whose second destination is p0). Kept as an
	// ablation knob.
	SplitPVT bool
}

// DefaultConfig returns the Table 1 predicate predictor configuration.
func DefaultConfig() Config {
	return Config{SizeBytes: 148 * 1024, GHRBits: 30, LHRBits: 10, LHTBits: 12, ConfBits: 3}
}

// Predictor is the predicate predictor.
type Predictor struct {
	cfg  Config
	pvt  *predictor.Perceptron
	lht  *predictor.LocalHistoryTable
	conf []predictor.SatCounter
}

// New builds a predicate predictor from cfg.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg: cfg,
		pvt: predictor.NewPerceptronBudget(cfg.SizeBytes, cfg.GHRBits, cfg.LHRBits),
		lht: predictor.NewLocalHistoryTable(cfg.LHTBits, cfg.LHRBits),
	}
	p.pvt.SetIdeal(cfg.Ideal)
	p.conf = make([]predictor.SatCounter, p.pvt.Rows())
	for i := range p.conf {
		p.conf[i].Bits = uint8(cfg.ConfBits)
	}
	return p
}

// Rows returns the number of PVT rows.
func (p *Predictor) Rows() int { return p.pvt.Rows() }

// SizeBytes returns the PVT storage budget.
func (p *Predictor) SizeBytes() int { return p.pvt.SizeBytes() }

// GHRBits returns the global history length the predictor expects.
func (p *Predictor) GHRBits() uint { return p.cfg.GHRBits }

// Lookup describes the two predictions made for one fetched compare.
// The pipeline stores it with the in-flight compare and passes it back
// to Train (on resolve) or Undo (on squash).
type Lookup struct {
	PC           uint64
	Row1, Row2   int
	Out1, Out2   predictor.PerceptronOutput
	Val1, Val2   bool // predicted final values of the two destinations
	Conf1, Conf2 bool // confidence at prediction time
	GHR          uint64
	LHR          uint64
	prevLHR      uint64 // LHT value before the speculative push
}

// Predict generates the two predicate predictions for a compare fetched
// at pc under speculative global history ghr. It speculatively pushes
// the first predicted value into the compare's local history (undone by
// Undo on squash, corrected by Train on a wrong prediction).
//
// The GHR push itself is the pipeline's job (it owns snapshots): push
// Lookup.Val1, once per compare, per §3.3.
func (p *Predictor) Predict(pc uint64, ghr uint64) Lookup {
	lhr := p.lht.Get(pc)
	var r1, r2 int
	if p.cfg.SplitPVT && !p.cfg.Ideal {
		// Static halves: first destinations hash into the lower half,
		// second destinations into the upper half.
		half := p.pvt.Rows() / 2
		r1 = p.pvt.Index(pc) % half
		r2 = half + p.pvt.Index(pc)%half
	} else {
		r1 = p.pvt.Index(pc)
		r2 = p.pvt.IndexSecond(pc)
	}
	o1 := p.pvt.PredictRow(r1, ghr, lhr)
	o2 := p.pvt.PredictRow(r2, ghr, lhr)
	lk := Lookup{
		PC: pc, Row1: r1, Row2: r2, Out1: o1, Out2: o2,
		Val1: o1.Taken, Val2: o2.Taken,
		Conf1: p.confAt(r1).Saturated(), Conf2: p.confAt(r2).Saturated(),
		GHR: ghr, LHR: lhr,
	}
	lk.prevLHR = p.lht.Push(pc, lk.Val1)
	return lk
}

func (p *Predictor) confAt(row int) *predictor.SatCounter {
	for row >= len(p.conf) { // ideal mode grows rows on demand
		c := predictor.SatCounter{Bits: uint8(p.cfg.ConfBits)}
		p.conf = append(p.conf, c)
	}
	return &p.conf[row]
}

// Train updates the PVT and confidence counters with the computed
// predicate values. If the first prediction was wrong, the speculative
// local-history bit is corrected in place.
func (p *Predictor) Train(lk Lookup, actual1, actual2 bool) {
	p.pvt.TrainRow(lk.Row1, lk.GHR, lk.LHR, actual1, lk.Out1)
	p.pvt.TrainRow(lk.Row2, lk.GHR, lk.LHR, actual2, lk.Out2)
	trainConf(p.confAt(lk.Row1), lk.Val1 == actual1)
	trainConf(p.confAt(lk.Row2), lk.Val2 == actual2)
	if actual1 != lk.Val1 {
		next := lk.prevLHR << 1
		if actual1 {
			next |= 1
		}
		p.lht.Set(lk.PC, next)
	}
}

// Undo rolls back the speculative local-history push of a squashed
// (wrong-path) compare.
func (p *Predictor) Undo(lk Lookup) {
	p.lht.Set(lk.PC, lk.prevLHR)
}

func trainConf(c *predictor.SatCounter, correct bool) {
	if correct {
		c.Inc()
	} else {
		c.Reset()
	}
}
