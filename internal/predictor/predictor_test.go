package predictor

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSatCounter2Bit(t *testing.T) {
	var c SatCounter
	if c.Taken() {
		t.Error("zero counter must predict not-taken")
	}
	c.Inc()
	if c.Taken() {
		t.Error("val 1 of 2-bit counter must predict not-taken")
	}
	c.Inc()
	if !c.Taken() {
		t.Error("val 2 of 2-bit counter must predict taken")
	}
	c.Inc()
	if !c.Saturated() {
		t.Error("val 3 must be saturated")
	}
	c.Inc()
	if c.Val != 3 {
		t.Error("must saturate at 3")
	}
	for i := 0; i < 5; i++ {
		c.Dec()
	}
	if c.Val != 0 {
		t.Error("must floor at 0")
	}
}

func TestSatCounterWidth(t *testing.T) {
	c := SatCounter{Bits: 3}
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.Val != 7 || !c.Saturated() {
		t.Errorf("3-bit counter val = %d", c.Val)
	}
	c.Reset()
	if c.Val != 0 {
		t.Error("reset failed")
	}
}

func TestSatCounterTrainConvergence(t *testing.T) {
	var c SatCounter
	for i := 0; i < 4; i++ {
		c.Train(true)
	}
	if !c.Taken() {
		t.Error("training taken must converge to taken")
	}
	for i := 0; i < 4; i++ {
		c.Train(false)
	}
	if c.Taken() {
		t.Error("training not-taken must converge to not-taken")
	}
}

func TestHistoryPushMask(t *testing.T) {
	h := History{N: 4}
	for _, b := range []bool{true, false, true, true} {
		h.Push(b)
	}
	// newest in bit 0: T,T,F,T -> 1011
	if h.Bits != 0b1011 {
		t.Errorf("bits = %04b, want 1011", h.Bits)
	}
	h.Push(true)
	if h.Bits != 0b0111 {
		t.Errorf("bits after overflow = %04b, want 0111", h.Bits)
	}
	if !h.Bit(0) || !h.Bit(1) || !h.Bit(2) || h.Bit(3) {
		t.Error("Bit() accessor wrong")
	}
}

func TestHistorySnapshotRestore(t *testing.T) {
	h := History{N: 8}
	h.Push(true)
	h.Push(false)
	snap := h.Snapshot()
	h.Push(true)
	h.Push(true)
	h.Restore(snap)
	if h.Bits != snap {
		t.Error("restore failed")
	}
}

func TestFoldPC(t *testing.T) {
	if FoldPC(0, 14) != 0 {
		t.Error("fold of 0 must be 0")
	}
	v := FoldPC(0x123456789abc, 14)
	if v >= 1<<14 {
		t.Errorf("fold exceeds index width: %#x", v)
	}
	// Folding must be deterministic.
	if v != FoldPC(0x123456789abc, 14) {
		t.Error("fold not deterministic")
	}
}

func TestGshareLearnsBias(t *testing.T) {
	g := NewGshare(14)
	pc := g.Site(0x400)
	var ghr uint64
	for i := 0; i < 10; i++ {
		g.Update(pc, ghr, true)
	}
	if !g.Predict(pc, ghr) {
		t.Error("gshare failed to learn an always-taken branch")
	}
}

func TestGshareUsesHistory(t *testing.T) {
	g := NewGshare(14)
	pc := g.Site(0x80)
	// Outcome alternates and equals the last outcome bit of history.
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		ghr := uint64(0)
		if !taken { // history after previous taken
			ghr = 1
		}
		g.Update(pc, ghr, taken)
	}
	if !g.Predict(pc, 0) {
		t.Error("gshare should predict taken after not-taken history")
	}
	if g.Predict(pc, 1) {
		t.Error("gshare should predict not-taken after taken history")
	}
}

func TestGshareSizeBytes(t *testing.T) {
	g := NewGshare(14)
	if g.SizeBytes() != 4*1024 {
		t.Errorf("gshare size = %d bytes, want 4096 (Table 1)", g.SizeBytes())
	}
}

func TestLocalHistoryTable(t *testing.T) {
	l := NewLocalHistoryTable(10, 10)
	pc := l.Slot(0x1234)
	old := l.Push(pc, true)
	if old != 0 {
		t.Errorf("initial history = %d", old)
	}
	if l.Get(pc) != 1 {
		t.Errorf("history after push = %d", l.Get(pc))
	}
	l.Push(pc, false)
	l.Push(pc, true)
	if l.Get(pc) != 0b101 {
		t.Errorf("history = %03b, want 101", l.Get(pc))
	}
	l.Set(pc, 0x3ff)
	if l.Get(pc) != 0x3ff {
		t.Error("set failed")
	}
	l.Push(pc, true)
	if l.Get(pc) != 0x3ff {
		t.Errorf("history must stay within 10 bits: %#x", l.Get(pc))
	}
}

func TestPerceptronLearnsXOR(t *testing.T) {
	// A perceptron can learn outcome == GHR bit 3 (linearly separable).
	p := NewPerceptron(64, 8, 0)
	pc := NewGeometry(64*9, 8, 0, false).Row(0x40)
	var h History
	h.N = 8
	for i := 0; i < 500; i++ {
		taken := h.Bit(3)
		out := p.PredictRow(pc, h.Snapshot(), 0)
		p.TrainRow(pc, h.Snapshot(), 0, taken, out)
		h.Push(taken != (i%7 == 0)) // outcome with occasional noise
	}
	correct := 0
	for i := 0; i < 200; i++ {
		taken := h.Bit(3)
		out := p.PredictRow(pc, h.Snapshot(), 0)
		if out.Taken == taken {
			correct++
		}
		p.TrainRow(pc, h.Snapshot(), 0, taken, out)
		h.Push(taken)
	}
	if correct < 190 {
		t.Errorf("perceptron accuracy on correlated branch: %d/200", correct)
	}
}

func TestPerceptronBudgetRows(t *testing.T) {
	p := NewPerceptronBudget(148*1024, 30, 10)
	if p.Rows() != 148*1024/41 {
		t.Errorf("rows = %d, want %d", p.Rows(), 148*1024/41)
	}
	if g := NewGeometry(148*1024, 30, 10, false); g.Rows() != p.Rows() {
		t.Errorf("geometry places sites in %d rows, the table has %d", g.Rows(), p.Rows())
	}
	if p.SizeBytes() > 148*1024 {
		t.Errorf("size = %d exceeds budget", p.SizeBytes())
	}
	hist := 40.0
	wantTheta := int32(1.93*hist + 14)
	if p.Theta() != wantTheta {
		t.Errorf("theta = %d, want %d", p.Theta(), wantTheta)
	}
}

func TestPerceptronSecondHashDiffers(t *testing.T) {
	g := NewGeometry(148*1024, 30, 10, false)
	f := func(pc uint64) bool {
		r := g.Row(pc)
		return r != g.SecondRow(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerceptronIdealNoAliasing(t *testing.T) {
	p := NewPerceptron(2, 8, 0) // tiny: guaranteed aliasing when real
	g := NewGeometry(2*9, 8, 0, true)
	// Private rows never repeat, even past the table's own rows.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		r := g.Place(0x40)
		if seen[r] {
			t.Fatalf("private row %d handed out twice", r)
		}
		seen[r] = true
	}
	r1, r2 := g.Place(0x40), g.Place(0x40)
	p.Grow(max(r1, r2) + 1)
	// Training one row heavily must not disturb the other.
	for i := 0; i < 100; i++ {
		out := p.PredictRow(r1, 0, 0)
		p.TrainRow(r1, 0, 0, true, out)
	}
	outBefore := p.PredictRow(r2, 0, 0)
	if outBefore.Sum != 0 {
		t.Errorf("untouched ideal row has nonzero output %d", outBefore.Sum)
	}
}

// TestPartitionNamesFirstSiteOfRow pins the aliasing partition's
// form, which replay compares element for element: each site maps to
// the first site placed in its row, so an idealized table, whose sites
// never share a row, maps every site to itself.
func TestPartitionNamesFirstSiteOfRow(t *testing.T) {
	if got, want := Partition([]int{5, 3, 5, 7, 3, 3}), []int32{0, 1, 0, 3, 1, 1}; !slices.Equal(got, want) {
		t.Errorf("Partition = %v, want %v", got, want)
	}
	ideal := NewGeometry(2*9, 8, 0, true)
	rows := []int{ideal.Place(0x40), ideal.Place(0x40), ideal.Place(0x80)}
	if got, want := Partition(rows), []int32{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("idealized partition = %v, want %v", got, want)
	}
}

func TestPerceptronWeightClamp(t *testing.T) {
	p := NewPerceptron(4, 2, 0)
	pc := NewGeometry(4*3, 2, 0, false).Row(8)
	for i := 0; i < 1000; i++ {
		out := p.PredictRow(pc, 3, 0)
		p.TrainRow(pc, 3, 0, true, out)
	}
	out := p.PredictRow(pc, 3, 0)
	// bias + 2 weights, each clamped to 127
	if out.Sum > 3*127 {
		t.Errorf("weights exceeded clamp: sum = %d", out.Sum)
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	if r.Pop() != -1 {
		t.Error("empty RAS must predict -1")
	}
	r.Push(10)
	r.Push(20)
	if got := r.Pop(); got != 20 {
		t.Errorf("pop = %d, want 20", got)
	}
	if got := r.Pop(); got != 10 {
		t.Errorf("pop = %d, want 10", got)
	}
	if r.Pop() != -1 {
		t.Error("RAS must be empty again")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // evicts 1
	if got := r.Pop(); got != 3 {
		t.Errorf("pop = %d, want 3", got)
	}
	if got := r.Pop(); got != 2 {
		t.Errorf("pop = %d, want 2", got)
	}
	if r.Pop() != -1 {
		t.Error("oldest entry must have been lost")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	r.Push(2)
	var snap RASSnapshot
	r.SnapshotInto(&snap)
	r.Pop()
	r.Push(99)
	r.Restore(snap)
	if got := r.Pop(); got != 2 {
		t.Errorf("after restore pop = %d, want 2", got)
	}
}

// TestRASSnapshotIndependence pins that a snapshot shares no storage
// with the stacks it restores: one snapshot restored into two stacks
// must leave them independent.
func TestRASSnapshotIndependence(t *testing.T) {
	r := NewRAS(8)
	for i := 1; i <= 5; i++ {
		r.Push(i * 10)
	}
	var snap RASSnapshot
	r.SnapshotInto(&snap)
	a, b := NewRAS(8), NewRAS(8)
	a.Restore(snap)
	b.Restore(snap)
	if got := a.Pop(); got != 50 {
		t.Fatalf("restored stack popped %d, want 50", got)
	}
	a.Push(999)
	if got := b.Pop(); got != 50 {
		t.Errorf("sibling restore affected by mutation: popped %d, want 50", got)
	}
}

func TestIndirectTable(t *testing.T) {
	it := NewIndirectTable(8)
	slot := it.Slot(0x123)
	if it.Predict(slot) != -1 {
		t.Error("cold entry must predict -1")
	}
	it.Update(slot, 77)
	if it.Predict(slot) != 77 {
		t.Error("last-target prediction failed")
	}
}
