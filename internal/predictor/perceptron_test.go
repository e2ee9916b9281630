package predictor

import (
	"fmt"
	"math/rand"
	"testing"
)

// scalarPerceptron is the reference rule the lane kernels must equal:
// one int8 weight per input in the order bias, global history bits
// 0..ghrBits-1, local history bits 0..lhrBits-1, walked one at a time.
type scalarPerceptron struct {
	w                []int8
	ghrBits, lhrBits uint
	per              int
}

func newScalarPerceptron(rows int, ghrBits, lhrBits uint) *scalarPerceptron {
	per := int(ghrBits+lhrBits) + 1
	return &scalarPerceptron{w: make([]int8, rows*per), ghrBits: ghrBits, lhrBits: lhrBits, per: per}
}

func (s *scalarPerceptron) row(r int) []int8 { return s.w[r*s.per : r*s.per+s.per] }

func (s *scalarPerceptron) predict(r int, ghr, lhr uint64) int32 {
	w := s.row(r)
	sum := int32(w[0])
	k := 1
	for i := uint(0); i < s.ghrBits; i++ {
		if ghr>>i&1 == 1 {
			sum += int32(w[k])
		} else {
			sum -= int32(w[k])
		}
		k++
	}
	for i := uint(0); i < s.lhrBits; i++ {
		if lhr>>i&1 == 1 {
			sum += int32(w[k])
		} else {
			sum -= int32(w[k])
		}
		k++
	}
	return sum
}

// train applies ±1 with clamping to every weight; the threshold test
// is the caller's, exactly as in TrainRow.
func (s *scalarPerceptron) train(r int, ghr, lhr uint64, taken bool) {
	w := s.row(r)
	w[0] = bump(w[0], taken)
	k := 1
	for i := uint(0); i < s.ghrBits; i++ {
		w[k] = bump(w[k], taken == (ghr>>i&1 == 1))
		k++
	}
	for i := uint(0); i < s.lhrBits; i++ {
		w[k] = bump(w[k], taken == (lhr>>i&1 == 1))
		k++
	}
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

// laneWeight reads weight k of row r (scalar order) from the lane layout.
func laneWeight(p *Perceptron, r, k int) int8 {
	lane := p.gw * 8 // local lanes start after the global words
	switch {
	case k == 0:
		lane = int(p.ghrBits)
	case k <= int(p.ghrBits):
		lane = k - 1
	default:
		lane += k - 1 - int(p.ghrBits)
	}
	b := p.weights[r*p.stride+lane/8] >> (8 * (lane % 8)) & 0xff
	return int8(int(b) - 128)
}

// checkPad fails unless every lane of row r that carries no input
// still holds weight 0.
func checkPad(t *testing.T, p *Perceptron, r int) {
	t.Helper()
	used := map[int]bool{}
	for k := 0; k <= int(p.ghrBits); k++ {
		used[k] = true
	}
	for k := 0; k < int(p.lhrBits); k++ {
		used[p.gw*8+k] = true
	}
	for lane := 0; lane < p.stride*8; lane++ {
		b := p.weights[r*p.stride+lane/8] >> (8 * (lane % 8)) & 0xff
		if !used[lane] && b != 0x80 {
			t.Fatalf("row %d pad lane %d holds %#x, want 0x80", r, lane, b)
		}
	}
}

// TestPerceptronMatchesScalar drives the lane kernels and the scalar
// reference with the same stream and compares every output sum (and the
// two-row PredictRows against PredictRow on each site's rows) and,
// after every training step, every weight. Half the steps draw random
// histories; the other half repeat one fixed history on two PCs and
// train on every step, first toward taken and then toward not-taken,
// so weights pin at both clamps. Histories carry garbage above their
// widths, which both sides must ignore.
func TestPerceptronMatchesScalar(t *testing.T) {
	widths := [][2]uint{{30, 10}, {1, 1}, {63, 63}, {8, 8}, {17, 3}, {2, 0}}
	for _, wd := range widths {
		for _, ideal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d_%d_ideal=%v", wd[0], wd[1], ideal), func(t *testing.T) {
				const rows = 4
				p := NewPerceptron(rows, wd[0], wd[1])
				g := NewGeometry(rows*int(wd[0]+wd[1]+1), wd[0], wd[1], ideal)
				// Each pc is one site with a first and a second row.
				var sites [rows * 4][2]int
				for pc := range sites {
					if ideal {
						sites[pc] = [2]int{g.Private(), g.Private()}
						p.Grow(sites[pc][1] + 1)
					} else {
						r := g.Row(uint64(pc))
						sites[pc] = [2]int{r, g.SecondRow(r)}
					}
				}
				s := newScalarPerceptron(rows*16, wd[0], wd[1])
				rng := rand.New(rand.NewSource(int64(wd[0]*64 + wd[1])))
				skewG, skewL := rng.Uint64(), rng.Uint64()
				for step := 0; step < 20000; step++ {
					pc := rng.Intn(rows * 4)
					ghr, lhr, taken := rng.Uint64(), rng.Uint64(), rng.Intn(2) == 1
					clamp := step/2000%2 == 1
					if clamp {
						pc, ghr, lhr = pc%2, skewG, skewL
						taken = step/4000%2 == 0
					}
					r := sites[pc][0]
					if step%3 == 0 {
						r = sites[pc][1]
					}
					out := p.PredictRow(r, ghr, lhr)
					if want := s.predict(r, ghr, lhr); out.Sum != want || out.Taken != (want >= 0) {
						t.Fatalf("step %d row %d: sum %d (taken %v), scalar %d", step, r, out.Sum, out.Taken, want)
					}
					r1, r2 := sites[pc][0], sites[pc][1]
					o1, o2 := p.PredictRows(r1, r2, ghr, lhr)
					if o1 != p.PredictRow(r1, ghr, lhr) || o2 != p.PredictRow(r2, ghr, lhr) {
						t.Fatalf("step %d rows %d, %d: PredictRows %+v, %+v; PredictRow %+v, %+v", step, r1, r2,
							o1, o2, p.PredictRow(r1, ghr, lhr), p.PredictRow(r2, ghr, lhr))
					}
					if clamp { // train past the threshold
						out = PerceptronOutput{Taken: !taken}
					}
					p.TrainRow(r, ghr, lhr, taken, out)
					if out.Taken != taken || abs32(out.Sum) <= p.Theta() {
						s.train(r, ghr, lhr, taken)
					}
					for k, want := range s.row(r) {
						if got := laneWeight(p, r, k); got != want {
							t.Fatalf("step %d row %d weight %d: %d, scalar %d", step, r, k, got, want)
						}
					}
					checkPad(t, p, r)
				}
				// The clamp phases must have reached both clamps.
				var lo, hi bool
				for _, w := range s.w {
					lo, hi = lo || w == -128, hi || w == 127
				}
				if !lo || !hi {
					t.Errorf("stream never reached both clamps (min seen %v, max seen %v)", lo, hi)
				}
			})
		}
	}
}

// BenchmarkPerceptron times one predict, one two-row predict (a site's
// f1 and f2 rows, as a compare's) and one train of the Table 1
// perceptron (148 KB, 30-bit global and 10-bit local history) on
// random rows and histories. Every prediction trains, as on a
// mispredicted or low-confidence branch.
func BenchmarkPerceptron(b *testing.B) {
	p := NewPerceptronBudget(148*1024, 30, 10)
	g := NewGeometry(148*1024, 30, 10, false)
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	var rows [n]int
	var hist [n][2]uint64
	var taken [n]bool
	for i := range rows {
		rows[i] = g.Row(rng.Uint64())
		hist[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
		taken[i] = rng.Intn(2) == 1
	}
	b.Run("predict", func(b *testing.B) {
		k := 0
		for b.Loop() {
			perceptronSink += p.PredictRow(rows[k], hist[k][0], hist[k][1]).Sum
			k = (k + 1) % n
		}
	})
	b.Run("predict2", func(b *testing.B) {
		k := 0
		for b.Loop() {
			o1, o2 := p.PredictRows(rows[k], g.SecondRow(rows[k]), hist[k][0], hist[k][1])
			perceptronSink += o1.Sum + o2.Sum
			k = (k + 1) % n
		}
	})
	b.Run("train", func(b *testing.B) {
		k := 0
		for b.Loop() {
			p.TrainRow(rows[k], hist[k][0], hist[k][1], taken[k], PerceptronOutput{Taken: !taken[k]})
			k = (k + 1) % n
		}
	})
}

var perceptronSink int32
