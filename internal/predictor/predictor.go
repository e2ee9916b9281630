// Package predictor provides the branch-prediction building blocks used
// by both the conventional two-level scheme of Table 1 (4 KB gshare
// first level + 148 KB perceptron second level) and, via package core,
// the paper's predicate predictor: saturating counters, global/local
// history management, a gshare predictor, a combined global/local
// perceptron, a return-address stack and an indirect-target table.
//
// Every table index a predictor derives from a program counter depends
// on the static instruction alone, so each table is addressed through a
// site (Site or Slot) that folds the PC once: an engine builds one per
// static branch or compare when it is constructed, and predicts, trains
// and undoes from it, so no per-event path folds a PC or divides by a
// table size.
package predictor

// SatCounter is an n-bit saturating up/down counter. The zero value is a
// strongly-not-taken 2-bit counter unless Bits is set.
type SatCounter struct {
	Val  uint8
	Bits uint8 // counter width; 0 is treated as 2
}

func (c *SatCounter) max() uint8 {
	b := c.Bits
	if b == 0 {
		b = 2
	}
	return uint8(1<<b - 1)
}

// Inc increments toward saturation.
func (c *SatCounter) Inc() {
	if c.Val < c.max() {
		c.Val++
	}
}

// Dec decrements toward zero.
func (c *SatCounter) Dec() {
	if c.Val > 0 {
		c.Val--
	}
}

// Train moves the counter toward the outcome.
func (c *SatCounter) Train(taken bool) {
	if taken {
		c.Inc()
	} else {
		c.Dec()
	}
}

// Taken reports the predicted direction (counter in the upper half).
func (c *SatCounter) Taken() bool { return c.Val > c.max()/2 }

// Saturated reports whether the counter is at its maximum.
func (c *SatCounter) Saturated() bool { return c.Val == c.max() }

// Reset zeroes the counter.
func (c *SatCounter) Reset() { c.Val = 0 }

// History is a shift register of up to 64 outcome bits, newest in bit 0.
type History struct {
	Bits uint64
	N    uint // number of live bits
}

// Push shifts in an outcome.
func (h *History) Push(taken bool) {
	h.Bits <<= 1
	if taken {
		h.Bits |= 1
	}
	h.Bits &= h.mask()
}

func (h *History) mask() uint64 {
	if h.N >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << h.N) - 1
}

// Bit returns history bit i (0 = most recent).
func (h *History) Bit(i uint) bool { return h.Bits>>i&1 == 1 }

// SetBit overwrites history bit i (0 = most recent); used by recovery
// to correct a mispredicted speculative bit in place when younger
// history bits must survive (predicate-consumer flushes).
func (h *History) SetBit(i uint, v bool) {
	if i >= h.N {
		return
	}
	if v {
		h.Bits |= 1 << i
	} else {
		h.Bits &^= 1 << i
	}
}

// Snapshot returns the raw bits for checkpointing.
func (h *History) Snapshot() uint64 { return h.Bits }

// Restore reinstates checkpointed bits.
func (h *History) Restore(bits uint64) { h.Bits = bits & h.mask() }

// FoldPC reduces a program counter to idx bits by xor-folding, a common
// predictor indexing hash.
func FoldPC(pc uint64, idx uint) uint64 {
	if idx == 0 || idx >= 64 {
		return pc
	}
	var f uint64
	for pc != 0 {
		f ^= pc & ((1 << idx) - 1)
		pc >>= idx
	}
	return f
}

// Gshare is a classic global-history predictor: a table of 2-bit
// counters indexed by pc XOR GHR. The caller owns the (speculative)
// global history and passes it to Predict/Update, so recovery is the
// caller's responsibility.
type Gshare struct {
	table   []SatCounter
	idxBits uint
}

// NewGshare builds a gshare predictor with 2^idxBits counters
// (idxBits=14 gives the paper's 4 KB first-level predictor).
func NewGshare(idxBits uint) *Gshare {
	return &Gshare{table: make([]SatCounter, 1<<idxBits), idxBits: idxBits}
}

// SizeBytes returns the storage budget of the table.
func (g *Gshare) SizeBytes() int { return len(g.table) * 2 / 8 }

// GshareSite is a conditional branch's gshare input: its PC folded to
// the table's index width.
type GshareSite uint32

// Site folds pc to the table's index width.
func (g *Gshare) Site(pc uint64) GshareSite {
	return GshareSite(FoldPC(pc, g.idxBits) & (1<<g.idxBits - 1))
}

// Predict returns the predicted direction for site s under global
// history ghr.
func (g *Gshare) Predict(s GshareSite, ghr uint64) bool {
	return g.table[(uint64(s)^ghr)&(1<<g.idxBits-1)].Taken()
}

// Update trains the counter selected by (s, ghr) toward the outcome.
// ghr must be the history value used at prediction time.
func (g *Gshare) Update(s GshareSite, ghr uint64, taken bool) {
	g.table[(uint64(s)^ghr)&(1<<g.idxBits-1)].Train(taken)
}

// LocalHistoryTable tracks per-site local histories of lhrBits bits.
type LocalHistoryTable struct {
	entries []uint64
	idxBits uint
	lhrBits uint
}

// NewLocalHistoryTable builds a table with 2^idxBits local history
// registers of lhrBits each.
func NewLocalHistoryTable(idxBits, lhrBits uint) *LocalHistoryTable {
	return &LocalHistoryTable{entries: make([]uint64, 1<<idxBits), idxBits: idxBits, lhrBits: lhrBits}
}

// Slot returns the table slot the static instruction at pc owns.
func (l *LocalHistoryTable) Slot(pc uint64) int {
	return int(FoldPC(pc, l.idxBits) & ((1 << l.idxBits) - 1))
}

// Get returns the local history in slot.
func (l *LocalHistoryTable) Get(slot int) uint64 { return l.entries[slot] }

// Push shifts an outcome into slot's local history and returns the
// value before the push (for checkpoint/undo on squash).
func (l *LocalHistoryTable) Push(slot int, taken bool) uint64 {
	old := l.entries[slot]
	v := old << 1
	if taken {
		v |= 1
	}
	l.entries[slot] = v & ((1 << l.lhrBits) - 1)
	return old
}

// Set overwrites slot's local history (squash recovery).
func (l *LocalHistoryTable) Set(slot int, v uint64) {
	l.entries[slot] = v & ((1 << l.lhrBits) - 1)
}

// LHRBits returns the local history length.
func (l *LocalHistoryTable) LHRBits() uint { return l.lhrBits }

// SizeBytes returns the storage budget of the table.
func (l *LocalHistoryTable) SizeBytes() int {
	return len(l.entries) * int(l.lhrBits) / 8
}
