package predictor

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
type Perceptron struct {
	weights []int8 // rows × weightsPerRow, flattened
	rows    int
	ghrBits uint
	lhrBits uint
	theta   int32
	perRow  int
	// ideal-mode aliasing elimination: PC -> private row
	ideal     bool
	idealRows map[uint64]int
}

// PerceptronOutput is the dot-product result of a prediction; training
// needs it to apply the threshold rule.
type PerceptronOutput struct {
	Taken bool
	Sum   int32
}

// NewPerceptron builds a perceptron predictor with the given number of
// rows and history lengths. Theta follows Jiménez-Lin:
// 1.93*history + 14.
func NewPerceptron(rows int, ghrBits, lhrBits uint) *Perceptron {
	per := int(ghrBits+lhrBits) + 1
	hist := int(ghrBits + lhrBits)
	return &Perceptron{
		weights: make([]int8, rows*per),
		rows:    rows,
		ghrBits: ghrBits,
		lhrBits: lhrBits,
		perRow:  per,
		theta:   int32(1.93*float64(hist) + 14),
	}
}

// NewPerceptronBudget builds a perceptron predictor sized to a byte
// budget: rows = budget / weightsPerRow. The paper's 148 KB with
// 30+10+1 weights yields 3696 rows.
func NewPerceptronBudget(bytes int, ghrBits, lhrBits uint) *Perceptron {
	per := int(ghrBits+lhrBits) + 1
	rows := bytes / per
	if rows < 1 {
		rows = 1
	}
	return NewPerceptron(rows, ghrBits, lhrBits)
}

// SetIdeal enables the idealized no-aliasing mode of §4.2: every static
// PC gets a private weight row, allocated on demand.
func (p *Perceptron) SetIdeal(on bool) {
	p.ideal = on
	if on && p.idealRows == nil {
		p.idealRows = make(map[uint64]int)
	}
}

// Rows returns the number of weight rows.
func (p *Perceptron) Rows() int { return p.rows }

// SizeBytes returns the storage budget (1 byte per weight).
func (p *Perceptron) SizeBytes() int { return len(p.weights) }

// Theta returns the training threshold.
func (p *Perceptron) Theta() int32 { return p.theta }

// Index maps a PC to a row index (hash f1 of the paper).
func (p *Perceptron) Index(pc uint64) int {
	if p.ideal {
		r, ok := p.idealRows[pc]
		if !ok {
			r = len(p.idealRows)
			p.idealRows[pc] = r
			// grow storage as new static instructions appear
			for r*p.perRow+p.perRow > len(p.weights) {
				p.weights = append(p.weights, make([]int8, p.perRow*64)...)
			}
		}
		return r
	}
	return int(FoldPC(pc, 20) % uint64(p.rows))
}

// IndexSecond maps a PC to the second row index (hash f2 of the paper:
// f1 with its most significant index bit inverted, generalized to
// non-power-of-two tables as an offset by half the table).
func (p *Perceptron) IndexSecond(pc uint64) int {
	if p.ideal {
		// distinct private row per (pc, second) pair
		return p.Index(pc ^ 0x8000000000000000)
	}
	i := p.Index(pc)
	return (i + p.rows/2) % p.rows
}

// hist packs the global and local history bits into one word in weight
// order (ghr bits 0..ghrBits-1, then lhr bits 0..lhrBits-1), so the
// predict/train loops walk a single shift register branchlessly. Only
// valid when the combined history fits a word; callers fall back to the
// two-loop form otherwise.
func (p *Perceptron) hist(ghr, lhr uint64) uint64 {
	return ghr&(1<<p.ghrBits-1) | lhr&(1<<p.lhrBits-1)<<p.ghrBits
}

// PredictRow computes the perceptron output for an explicit row.
func (p *Perceptron) PredictRow(row int, ghr uint64, lhr uint64) PerceptronOutput {
	w := p.weights[row*p.perRow : row*p.perRow+p.perRow]
	sum := int32(w[0]) // bias
	if p.ghrBits+p.lhrBits < 64 {
		// Branchless hot path: m is 0 when the history bit is set (add
		// the weight) and -1 when clear ((x^-1)-(-1) = -x), so the sum
		// accumulates ±weight without a data-dependent branch per bit.
		h := p.hist(ghr, lhr)
		for _, x := range w[1:] {
			m := int32(h&1) - 1
			sum += (int32(x) ^ m) - m
			h >>= 1
		}
		return PerceptronOutput{Taken: sum >= 0, Sum: sum}
	}
	k := 1
	for i := uint(0); i < p.ghrBits; i++ {
		if ghr>>i&1 == 1 {
			sum += int32(w[k])
		} else {
			sum -= int32(w[k])
		}
		k++
	}
	for i := uint(0); i < p.lhrBits; i++ {
		if lhr>>i&1 == 1 {
			sum += int32(w[k])
		} else {
			sum -= int32(w[k])
		}
		k++
	}
	return PerceptronOutput{Taken: sum >= 0, Sum: sum}
}

// Predict computes the prediction for pc under the given histories.
func (p *Perceptron) Predict(pc uint64, ghr, lhr uint64) PerceptronOutput {
	return p.PredictRow(p.Index(pc), ghr, lhr)
}

// TrainRow applies the perceptron learning rule to an explicit row: train
// when the prediction was wrong or the output magnitude is below theta.
// ghr and lhr must be the history values used at prediction time.
func (p *Perceptron) TrainRow(row int, ghr, lhr uint64, taken bool, out PerceptronOutput) {
	if out.Taken == taken && abs32(out.Sum) > p.theta {
		return
	}
	w := p.weights[row*p.perRow : row*p.perRow+p.perRow]
	w[0] = bump(w[0], taken)
	if p.ghrBits+p.lhrBits < 64 {
		// Branchless agreement: t repeats the outcome bit, so h&1^t is
		// 1 exactly when the history bit disagrees with the outcome and
		// d is ∓1 accordingly; only the (rare) clamp branches remain.
		h := p.hist(ghr, lhr)
		t := uint64(0)
		if taken {
			t = 1
		}
		for k := range w[1:] {
			d := int32(h&1^t)*-2 + 1
			v := int32(w[k+1]) + d
			if v > 127 {
				v = 127
			} else if v < -128 {
				v = -128
			}
			w[k+1] = int8(v)
			h >>= 1
		}
		return
	}
	k := 1
	for i := uint(0); i < p.ghrBits; i++ {
		w[k] = bump(w[k], taken == (ghr>>i&1 == 1))
		k++
	}
	for i := uint(0); i < p.lhrBits; i++ {
		w[k] = bump(w[k], taken == (lhr>>i&1 == 1))
		k++
	}
}

// Train trains the row selected by pc.
func (p *Perceptron) Train(pc uint64, ghr, lhr uint64, taken bool, out PerceptronOutput) {
	p.TrainRow(p.Index(pc), ghr, lhr, taken, out)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// bump moves a weight toward +1 (agree) or -1 (disagree) with clamping.
func bump(w int8, agree bool) int8 {
	if agree {
		if w < 127 {
			return w + 1
		}
		return w
	}
	if w > -128 {
		return w - 1
	}
	return w
}
