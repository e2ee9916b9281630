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
	cfg    Config
	pvt    *predictor.Perceptron
	lht    *predictor.LocalHistoryTable
	conf   []predictor.SatCounter
	layout Layout
}

// New builds a predicate predictor from cfg.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:    cfg,
		pvt:    predictor.NewPerceptronBudget(cfg.SizeBytes, cfg.GHRBits, cfg.LHRBits),
		lht:    predictor.NewLocalHistoryTable(cfg.LHTBits, cfg.LHRBits),
		layout: NewLayout(cfg),
	}
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

// Site is a static compare's place in the predictor: the PVT rows of
// its two destinations and its local history slot.
type Site struct {
	row1, row2, slot int32
}

// Site builds the site of the compare at pc, in the rows the
// predictor's Layout places its destinations. In ideal mode each call
// allocates two private rows, so build one site per static compare.
func (p *Predictor) Site(pc uint64) Site {
	r1, r2 := p.layout.Place(pc)
	if n := max(r1, r2) + 1; n > len(p.conf) {
		p.pvt.Grow(n)
		for len(p.conf) < n {
			p.conf = append(p.conf, predictor.SatCounter{Bits: uint8(p.cfg.ConfBits)})
		}
	}
	return Site{row1: int32(r1), row2: int32(r2), slot: int32(p.lht.Slot(pc))}
}

// Layout places the two destinations of each static compare in the
// PVT of a configuration without building the table: the §3.3 shared
// table's f1 and f2 rows, the static halves of a split table, or two
// private rows per compare under the §4.2 idealization.
type Layout struct {
	geom  predictor.Geometry
	split bool
}

// NewLayout returns the PVT layout of cfg.
func NewLayout(cfg Config) Layout {
	return Layout{geom: predictor.NewGeometry(cfg.SizeBytes, cfg.GHRBits, cfg.LHRBits, cfg.Ideal), split: cfg.SplitPVT}
}

// Place returns the PVT rows of the two destinations of the compare at
// pc. In ideal mode each call hands out two private rows, so place each
// static compare once.
func (l *Layout) Place(pc uint64) (row1, row2 int) {
	switch {
	case l.geom.Ideal():
		return l.geom.Private(), l.geom.Private()
	case l.split:
		// Static halves: first destinations hash into the lower half,
		// second destinations into the upper half.
		half := l.geom.Rows() / 2
		r := l.geom.Row(pc)
		return r % half, half + r%half
	default:
		r := l.geom.Row(pc)
		return r, l.geom.SecondRow(r)
	}
}

// Lookup describes the two predictions made for one fetched compare.
// Predict fills it where its caller keeps it, with the in-flight
// compare in the pipeline and in the pending-training slot in replay,
// and Train (on resolve) or Undo (on squash) read it there.
type Lookup struct {
	site         Site
	Out1, Out2   predictor.PerceptronOutput
	Val1, Val2   bool // predicted final values of the two destinations
	Conf1, Conf2 bool // confidence at prediction time
	GHR          uint64
	LHR          uint64
	prevLHR      uint64 // LHT value before the speculative push
}

// Predict generates the two predicate predictions for the compare at
// site s, fetched under speculative global history ghr, into lk: one
// walk of the PVT predicts both destination rows under one set of
// input masks (Perceptron.PredictRows). It speculatively pushes the
// first predicted value into the compare's local history (undone by
// Undo on squash, corrected by Train on a wrong prediction).
//
// The GHR push itself is the pipeline's job (it owns snapshots): push
// Lookup.Val1, once per compare, per §3.3.
func (p *Predictor) Predict(lk *Lookup, s Site, ghr uint64) {
	lhr := p.lht.Get(int(s.slot))
	o1, o2 := p.pvt.PredictRows(int(s.row1), int(s.row2), ghr, lhr)
	lk.site, lk.Out1, lk.Out2 = s, o1, o2
	lk.Val1, lk.Val2 = o1.Taken, o2.Taken
	lk.Conf1, lk.Conf2 = p.conf[s.row1].Saturated(), p.conf[s.row2].Saturated()
	lk.GHR, lk.LHR = ghr, lhr
	lk.prevLHR = p.lht.Push(int(s.slot), o1.Taken)
}

// Train updates the PVT and confidence counters with the computed
// predicate values of the compare lk predicted. If the first prediction
// was wrong, the speculative local-history bit is corrected in place.
func (p *Predictor) Train(lk *Lookup, actual1, actual2 bool) {
	s := lk.site
	p.pvt.TrainRow(int(s.row1), lk.GHR, lk.LHR, actual1, lk.Out1)
	p.pvt.TrainRow(int(s.row2), lk.GHR, lk.LHR, actual2, lk.Out2)
	trainConf(&p.conf[s.row1], lk.Val1 == actual1)
	trainConf(&p.conf[s.row2], lk.Val2 == actual2)
	if actual1 != lk.Val1 {
		next := lk.prevLHR << 1
		if actual1 {
			next |= 1
		}
		p.lht.Set(int(s.slot), next)
	}
}

// Undo rolls back the speculative local-history push of a squashed
// (wrong-path) compare.
func (p *Predictor) Undo(lk *Lookup) {
	p.lht.Set(int(lk.site.slot), lk.prevLHR)
}

func trainConf(c *predictor.SatCounter, correct bool) {
	if correct {
		c.Inc()
	} else {
		c.Reset()
	}
}
