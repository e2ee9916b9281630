package predictor

import "math/bits"

// Perceptron is the Jiménez-Lin perceptron predictor extended with local
// history inputs, as configured in Table 1 of the paper: 30 bits of
// global history, 10 bits of local history, one bias weight, 8-bit
// weights. The same structure backs both the conventional second-level
// branch predictor and (via package core) the predicate predictor's
// perceptron vector table.
//
// The caller owns the speculative global history and the local history
// table; Predict is a pure function of (row, ghr, lhr) and Train updates
// the row's weights.
//
// Weights are stored eight to a 64-bit word, one byte lane each, biased
// by 128 so lane arithmetic is unsigned (lane value b = w+128). A row is
// gw words of global-history weights followed by lw words of
// local-history weights. The bias weight is the global lane just above
// the last history bit, read as a history bit that is always set.
// Lanes past the last input are pad: they hold weight 0 and never
// train, so they add nothing to a sum.
type Perceptron struct {
	weights []uint64 // rows × stride words, flattened
	rows    int
	ghrBits uint
	lhrBits uint
	theta   int32
	perRow  int // weights per row (history + bias): the Table 1 budget unit
	stride  int // words per row: gw + lw
	gw      int // words of global weights (bias included)
}

// PerceptronOutput is the dot-product result of a prediction; training
// needs it to apply the threshold rule.
type PerceptronOutput struct {
	Taken bool
	Sum   int32
}

// MaxHistoryBits is the longest global or local history a perceptron
// takes: one history word, whose top bit is left for the bias input.
const MaxHistoryBits = 63

const (
	laneLSB  = 0x0101010101010101 // 1 in every byte lane
	laneLow7 = 0x7f7f7f7f7f7f7f7f
	pairLow  = 0x00ff00ff00ff00ff // the low byte of every 16-bit pair
	zeroLane = 0x8080808080808080 // eight weights of 0, biased
)

// laneMask[b] is 0xff in byte lane i exactly when bit i of b is set.
var laneMask = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			if b>>i&1 == 1 {
				t[b] |= 0xff << (8 * i)
			}
		}
	}
	return t
}()

// NewPerceptron builds a perceptron predictor with the given number of
// rows and history lengths, each at most MaxHistoryBits. Theta follows
// Jiménez-Lin: 1.93*history + 14.
func NewPerceptron(rows int, ghrBits, lhrBits uint) *Perceptron {
	p := new(Perceptron)
	p.Reset(rows, ghrBits, lhrBits)
	return p
}

// NewPerceptronBudget builds a perceptron predictor sized to a byte
// budget: the rows of NewGeometry(bytes, ghrBits, lhrBits, false).
func NewPerceptronBudget(bytes int, ghrBits, lhrBits uint) *Perceptron {
	return NewPerceptron(NewGeometry(bytes, ghrBits, lhrBits, false).Rows(), ghrBits, lhrBits)
}

// Reset makes p the predictor NewPerceptron(rows, ghrBits, lhrBits)
// builds, reusing its weights' storage.
func (p *Perceptron) Reset(rows int, ghrBits, lhrBits uint) {
	if ghrBits > MaxHistoryBits || lhrBits > MaxHistoryBits {
		panic("predictor: perceptron history longer than MaxHistoryBits")
	}
	hist := int(ghrBits + lhrBits)
	gw, lw := int(ghrBits+1+7)/8, int(lhrBits+7)/8
	*p = Perceptron{
		weights: zeroRows(p.weights[:0], rows*(gw+lw)),
		rows:    rows,
		ghrBits: ghrBits,
		lhrBits: lhrBits,
		perRow:  hist + 1,
		stride:  gw + lw,
		gw:      gw,
		theta:   int32(1.93*float64(hist) + 14),
	}
}

// zeroRows returns w extended by n words of zero weights.
func zeroRows(w []uint64, n int) []uint64 {
	w = append(w, make([]uint64, n)...)
	tail := w[len(w)-n:]
	for i := range tail {
		tail[i] = zeroLane
	}
	return w
}

// Rows returns the number of weight rows.
func (p *Perceptron) Rows() int { return p.rows }

// SizeBytes returns the storage budget (1 byte per weight; pad lanes
// are a host layout detail and do not count).
func (p *Perceptron) SizeBytes() int { return len(p.weights) / p.stride * p.perRow }

// Theta returns the training threshold.
func (p *Perceptron) Theta() int32 { return p.theta }

// Grow extends storage past the budget, if need be, to hold rows rows:
// the private rows a Geometry hands out under the §4.2 no-aliasing
// idealization run past the table's own.
func (p *Perceptron) Grow(rows int) {
	for rows*p.stride > len(p.weights) {
		p.weights = zeroRows(p.weights, 64*p.stride)
	}
}

// Geometry places static sites in a perceptron table: how many rows a
// byte budget buys, the row each site's PC hashes to, and, under the
// §4.2 no-aliasing idealization, a private row per site instead. It
// holds no weights, so a caller can place a program's sites, and
// compare two tables' placements, without building either table. Every
// row of a table starts out equal and a site reaches the table only
// through its row, so two tables that partition a program's sites into
// rows alike predict them alike (Partition).
type Geometry struct {
	rows    int
	ideal   bool
	private int // private rows handed out (Place, ideal mode)
}

// NewGeometry returns the placement of a table of bytes over
// ghrBits+lhrBits history weights and a bias: rows = budget / weights
// per row, at least one. The paper's 148 KB with 30+10+1 weights
// yields 3696 rows.
func NewGeometry(bytes int, ghrBits, lhrBits uint, ideal bool) Geometry {
	return Geometry{rows: max(1, bytes/(int(ghrBits+lhrBits)+1)), ideal: ideal}
}

// Rows returns the number of rows the budget buys.
func (g Geometry) Rows() int { return g.rows }

// Ideal reports whether every site gets a private row.
func (g Geometry) Ideal() bool { return g.ideal }

// Row maps the static instruction at pc to its row (hash f1 of the
// paper).
func (g Geometry) Row(pc uint64) int {
	return int(FoldPC(pc, 20) % uint64(g.rows))
}

// SecondRow maps a site whose first row is row to its second row (hash
// f2 of the paper: f1 with its most significant index bit inverted,
// generalized to non-power-of-two tables as an offset by half the
// table).
func (g Geometry) SecondRow(row int) int {
	return (row + g.rows/2) % g.rows
}

// Private hands out a row no other site shares, for the idealized
// no-aliasing mode of §4.2, where every site owns its rows. Rows are
// numbered from 0 in call order and may run past the budget
// (Perceptron.Grow); numbering is irrelevant, since no two sites meet
// in a row.
func (g *Geometry) Private() int {
	r := g.private
	g.private++
	return r
}

// Place returns the row of the site at pc: its f1 row, or a private
// row in ideal mode, so place each static site once.
func (g *Geometry) Place(pc uint64) int {
	if g.ideal {
		return g.Private()
	}
	return g.Row(pc)
}

// Partition returns the aliasing partition of a placement, given the
// row of each site in placement order: for each site, the index of the
// first site placed in its row. Two placements alias their sites alike
// exactly when their partitions are equal element for element.
func Partition(rows []int) []int32 {
	first := make(map[int]int32, len(rows))
	part := make([]int32, len(rows))
	for i, r := range rows {
		f, ok := first[r]
		if !ok {
			f = int32(i)
			first[r] = f
		}
		part[i] = f
	}
	return part
}

// inputs returns the row's input bits in lane order: the global word
// (history, then the always-set bias bit) and the local word.
func (p *Perceptron) inputs(ghr, lhr uint64) (g, l uint64) {
	return ghr&(1<<p.ghrBits-1) | 1<<p.ghrBits, lhr & (1<<p.lhrBits - 1)
}

// PredictRow computes the perceptron output for an explicit row.
//
// Each word x is XORed with the complement of its lanes' input mask, so
// a lane whose input is set keeps b = w+128 and a lane whose input is
// clear becomes 255-b = 127-w. The lanes are summed as 16-bit pairs and
// folded with one multiply into V = Σset(w+128) + Σclear(127-w). Over
// N lanes with n inputs set, V = Σset w - Σclear w + 127N + n, which
// the last line removes (pad lanes are clear with w = 0, so they only
// add to 127N). V is at most 255 × 128 lanes, so no 16-bit pair sum or
// fold carries.
func (p *Perceptron) PredictRow(row int, ghr, lhr uint64) PerceptronOutput {
	w := p.weights[row*p.stride : row*p.stride+p.stride]
	g, l := p.inputs(ghr, lhr)
	h, gw := g, p.gw
	var acc uint64
	for i, x := range w {
		if i == gw {
			h = l
		}
		v := x ^ ^laneMask[uint8(h)]
		acc += v&pairLow + v>>8&pairLow
		h >>= 8
	}
	v := int32(acc * 0x0001000100010001 >> 48)
	sum := v - int32(127*8*len(w)+bits.OnesCount64(g)+bits.OnesCount64(l))
	return PerceptronOutput{Taken: sum >= 0, Sum: sum}
}

// PredictRows computes the outputs of two rows under the same histories
// in one walk: PredictRow of each, with each word's input mask looked up
// once for both (a predicate predictor's two destinations).
func (p *Perceptron) PredictRows(row1, row2 int, ghr, lhr uint64) (o1, o2 PerceptronOutput) {
	w1 := p.weights[row1*p.stride : row1*p.stride+p.stride]
	w2 := p.weights[row2*p.stride : row2*p.stride+p.stride]
	w2 = w2[:len(w1)]
	g, l := p.inputs(ghr, lhr)
	h, gw := g, p.gw
	var acc1, acc2 uint64
	for i, x := range w1 {
		if i == gw {
			h = l
		}
		m := ^laneMask[uint8(h)]
		v1, v2 := x^m, w2[i]^m
		acc1 += v1&pairLow + v1>>8&pairLow
		acc2 += v2&pairLow + v2>>8&pairLow
		h >>= 8
	}
	off := int32(127*8*len(w1) + bits.OnesCount64(g) + bits.OnesCount64(l))
	s1 := int32(acc1*0x0001000100010001>>48) - off
	s2 := int32(acc2*0x0001000100010001>>48) - off
	return PerceptronOutput{Taken: s1 >= 0, Sum: s1}, PerceptronOutput{Taken: s2 >= 0, Sum: s2}
}

// TrainRow applies the perceptron learning rule to an explicit row: train
// when the prediction was wrong or the output magnitude is below theta.
// ghr and lhr must be the history values used at prediction time.
//
// Every weight moves one step toward agreement with the outcome and
// saturates at -128 and 127, one word at a time: agreeing lanes gain 1
// unless they hold 0xff, disagreeing lanes lose 1 unless they hold 0.
// The guards make every lane's step carry- and borrow-free, so this is
// the scalar clamp exactly. Pad lanes are neither agreeing nor
// disagreeing.
func (p *Perceptron) TrainRow(row int, ghr, lhr uint64, taken bool, out PerceptronOutput) {
	if out.Taken == taken && abs32(out.Sum) > p.theta {
		return
	}
	w := p.weights[row*p.stride : row*p.stride+p.stride]
	g, l := p.inputs(ghr, lhr)
	var t uint64 // all ones when taken: h^t has a 1 where an input disagrees
	if taken {
		t = ^uint64(0)
	}
	live := uint64(1)<<(p.ghrBits+1) - 1 // the global inputs; a shift by 64 gives 0
	h, gw := g^t, p.gw
	for i, x := range w {
		if i == gw {
			h, live = l^t, 1<<p.lhrBits-1
		}
		dis := laneMask[uint8(h&live)] & laneLSB
		agree := laneMask[uint8(^h&live)] & laneLSB
		w[i] = x + agree&nonzero(^x) - dis&nonzero(x)
		h >>= 8
		live >>= 8
	}
}

// nonzero returns 1 in each byte lane of v that is not zero. Adding 0x7f
// to a lane's low seven bits sets its top bit unless they are all zero,
// and never carries into the next lane.
func nonzero(v uint64) uint64 {
	return ((v&laneLow7 + laneLow7) | v) >> 7 & laneLSB
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}
