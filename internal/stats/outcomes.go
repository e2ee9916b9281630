package stats

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/scheme"
	"repro/internal/trace"
)

// batchWords is one batch's miss bits, one bit per decoded event.
const batchWords = batchEvents / 64

// maxOutcomes bounds the entries one Outcomes keeps. An entry holds one
// bit per admitted event, so a full store holds one byte per event of
// its longest pass.
const maxOutcomes = 8

// Outcomes stores the per-event miss bits of the conventional
// predictors that completed replay passes of one binary ran, so a later
// pass over the binary reads them instead of running the predictor
// again. A conventional predictor's outcomes depend only on the
// program's committed branch stream and on what convKey holds, so an
// entry is keyed by the trace's program, the convKey and the pass's
// effective commit budget (budgetKey), and is stored only from a pass
// that completed. Passes sharing an Outcomes may run concurrently and
// never wait for each other: a pass reads the entries stored when it
// starts and runs the other predictors itself, and when two passes
// store one key the first one's entry stays. A store keeps its
// maxOutcomes latest entries. The zero value is an empty store; it
// lives as long as its owner keeps it.
type Outcomes struct {
	mu      sync.Mutex
	entries []*outcome // oldest first
}

// outcome is one stored conventional predictor's miss bits.
type outcome struct {
	prog   uint64 // trace.Trace.ProgHash
	key    convKey
	budget uint64
	// bits holds batchWords words per batch that admitted events, in
	// batch order, and events counts those events.
	bits   []uint64
	events int
}

// budgetKey is the commit budget that, with the program, fixes the
// events a pass admits: commits when the trace covers it (0 = to halt),
// else the trace's own length.
func budgetKey(tr *trace.Trace, commits uint64) uint64 {
	if tr.Covers(commits) {
		return commits
	}
	return tr.Steps
}

func (o *Outcomes) find(prog uint64, k convKey, budget uint64) *outcome {
	for _, e := range o.entries {
		if e.prog == prog && e.budget == budget && e.key.equal(k) {
			return e
		}
	}
	return nil
}

// lookup points each of a pass's conventional predictors at its stored
// outcomes; one the store does not hold keeps every batch's bits for
// store.
func (o *Outcomes) lookup(prog, budget uint64, convs []*convPass) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, c := range convs {
		c.stored = o.find(prog, c.key, budget)
		c.keep = c.stored == nil
	}
}

// store keeps the outcomes of the predictors a completed pass ran,
// unless a pass that completed first stored the key, dropping the
// oldest entries past maxOutcomes.
func (o *Outcomes) store(prog, budget uint64, convs []*convPass) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, c := range convs {
		if !c.keep || o.find(prog, c.key, budget) != nil {
			continue
		}
		o.entries = append(o.entries, &outcome{prog: prog, key: c.key, budget: budget, bits: slices.Clip(c.bits), events: c.events})
	}
	if n := len(o.entries) - maxOutcomes; n > 0 {
		o.entries = slices.Delete(o.entries, 0, n)
	}
}

// convPass is one conventional predictor a replay pass shares. A
// conventional engine and a predicate engine's Figure 6b shadow both
// run the predictor at zero lag (scheme.Conventional.Score): every
// committed conditional branch, in commit order, with a history fed by
// committed outcomes and training at once, so the predictor's outcomes
// depend only on the branch stream and its key: the pass runs it once
// per batch, after the frontend, and each engine of that key reads the
// per-event miss bits. With a store, a pass reads the bits an earlier
// pass stored instead (stored), or keeps every batch's bits to store
// them (keep).
type convPass struct {
	key  convKey
	cfg  EngineConfig         // the first reading engine's: the table's budget and idealization
	conv *scheme.Conventional // nil when stored
	// miss holds the current batch's miss bits, bit i for event i, set
	// only at EvCondBr events.
	miss *[batchWords]uint64
	// bits is every batch's bits so far when keep, else one batch's.
	bits   []uint64
	events int // events admitted so far
	keep   bool
	stored *outcome
}

// build readies the predictor for a pass over a program whose
// instructions' record kinds are kinds: a stored one needs nothing, a
// computed one its table, its sites and its first batch's bits.
func (c *convPass) build(kinds []uint8) {
	if c.stored != nil {
		return
	}
	c.conv = scheme.ConvOf(c.cfg, kinds)
	c.bits = make([]uint64, batchWords)
	c.miss = (*[batchWords]uint64)(c.bits)
}

// batch scores batch b's admitted events evs: from the stored bits, or
// by scoring every conditional branch.
func (c *convPass) batch(b int, evs []trace.Event) error {
	if len(evs) == 0 {
		return nil
	}
	c.events += len(evs)
	if s := c.stored; s != nil {
		if c.events > s.events || (b+1)*batchWords > len(s.bits) {
			return fmt.Errorf("stats: %w: the trace admits more events than the stored outcomes of its program hold", trace.ErrCorrupt)
		}
		c.miss = (*[batchWords]uint64)(s.bits[b*batchWords:])
		return nil
	}
	// Only a pass's last batch can admit no events, so the batches that
	// admit some are 0, 1, … and keep holds one block of bits each.
	if c.keep && b > 0 {
		c.bits = append(c.bits, make([]uint64, batchWords)...)
		c.miss = (*[batchWords]uint64)(c.bits[len(c.bits)-batchWords:])
	} else {
		clear(c.miss[:])
	}
	for i := range evs {
		if ev := &evs[i]; ev.Kind == trace.EvCondBr && c.conv.Score(ev.PC, ev.Taken) {
			c.miss[i>>6&(batchWords-1)] |= 1 << (uint(i) & 63)
		}
	}
	return nil
}

// misses counts the current batch's mispredictions; the batch must
// have admitted events, or miss still holds the previous batch's bits.
func (c *convPass) misses() uint64 {
	n := 0
	for _, w := range c.miss {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// missed reports whether the predictor mispredicted event i of the
// current batch.
func (c *convPass) missed(i int) bool {
	return c.miss[i>>6&(batchWords-1)]>>(uint(i)&63)&1 != 0
}
