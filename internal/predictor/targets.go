package predictor

// RAS is a return-address stack for predicting OpRet targets. Overflow
// wraps (oldest entry lost), underflow predicts -1 (forced mispredict).
type RAS struct {
	stack []int
	top   int // number of live entries, saturating at cap
}

// NewRAS returns a return-address stack with the given capacity.
func NewRAS(capacity int) *RAS {
	return &RAS{stack: make([]int, capacity)}
}

// Push records a return address at a call.
func (r *RAS) Push(addr int) {
	copy(r.stack[1:], r.stack[:len(r.stack)-1])
	r.stack[0] = addr
	if r.top < len(r.stack) {
		r.top++
	}
}

// Pop predicts and consumes the top return address; -1 when empty.
func (r *RAS) Pop() int {
	if r.top == 0 {
		return -1
	}
	v := r.stack[0]
	copy(r.stack, r.stack[1:])
	r.top--
	return v
}

// SnapshotInto copies the stack state into s for checkpoint-based
// recovery. It reuses s's storage, so a recycled snapshot costs no
// allocation.
func (r *RAS) SnapshotInto(s *RASSnapshot) {
	if len(s.stack) != len(r.stack) {
		s.stack = make([]int, len(r.stack))
	}
	s.top = r.top
	copy(s.stack, r.stack)
}

// Restore reinstates a snapshot.
func (r *RAS) Restore(s RASSnapshot) {
	r.top = s.top
	copy(r.stack, s.stack)
}

// RASSnapshot is an opaque checkpoint of a RAS.
type RASSnapshot struct {
	stack []int
	top   int
}

// IndirectTable predicts indirect branch targets (OpBrInd) with a
// last-target table indexed by PC.
type IndirectTable struct {
	targets []int
	idxBits uint
}

// NewIndirectTable builds a last-target table with 2^idxBits entries.
func NewIndirectTable(idxBits uint) *IndirectTable {
	t := &IndirectTable{targets: make([]int, 1<<idxBits), idxBits: idxBits}
	for i := range t.targets {
		t.targets[i] = -1
	}
	return t
}

// Slot returns the table slot the indirect branch at pc owns.
func (t *IndirectTable) Slot(pc uint64) int {
	return int(FoldPC(pc, t.idxBits) & (1<<t.idxBits - 1))
}

// Predict returns the last target recorded in slot (-1 if none).
func (t *IndirectTable) Predict(slot int) int { return t.targets[slot] }

// Update records an observed target in slot.
func (t *IndirectTable) Update(slot, target int) { t.targets[slot] = target }
