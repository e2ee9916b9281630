package scheme

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// kindsOf returns n sites of one kind, one per PC.
func kindsOf(kind uint8, n int) []uint8 {
	kinds := make([]uint8, n)
	for i := range kinds {
		kinds[i] = kind
	}
	return kinds
}

func predCfg() Config { return ConfigOf(config.Default().WithScheme(config.SchemePredicate)) }

// warm runs a fixed stream of predicted, resolved and trained compares
// through p.
func warm(p *Predicate, n int) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		var lk core.Lookup
		_, ord := p.Predict(&lk, rng.Intn(n))
		r1, r2 := rng.Intn(2) == 0, rng.Intn(2) == 0
		p.Resolve(ord, r1)
		p.Train(&lk, r1, r2)
		p.Retire(r1)
	}
}

// TestSquashUndoesPredict: a squash after a predict, youngest first,
// leaves the tables and both histories bit-identical to before.
func TestSquashUndoesPredict(t *testing.T) {
	kinds := kindsOf(trace.EvCompare, 16)
	for _, perfect := range []bool{false, true} {
		c := predCfg()
		c.IdealPerfectGHR = perfect
		p, ref := NewPredicate(c, kinds), NewPredicate(c, kinds)
		warm(p, 16)
		warm(ref, 16)
		var lks [5]core.Lookup
		var snaps [5]uint64
		for i := range lks {
			snaps[i], _ = p.Predict(&lks[i], i*3)
		}
		for i := len(lks) - 1; i >= 0; i-- {
			p.Squash(&lks[i], snaps[i])
		}
		if !reflect.DeepEqual(p, ref) {
			t.Errorf("perfect=%v: predict then squash changed the predictor side", perfect)
		}
	}
	cv, ref := ConvOf(ConfigOf(config.Default()), kindsOf(trace.EvCondBr, 8)), ConvOf(ConfigOf(config.Default()), kindsOf(trace.EvCondBr, 8))
	var lk predictor.TwoLevelLookup
	snap, _ := cv.Predict(&lk, 3)
	cv.Squash(&lk, snap)
	if !reflect.DeepEqual(cv, ref) {
		t.Error("conventional: predict then squash changed the predictor side")
	}
}

// TestResolveRepairsItsOwnBit: the §3.3 repair writes the compare's
// outcome into its own bit under k younger pushes and touches no other
// bit, and does nothing under DisableGHRRepair. The younger pushes
// stand for compares still in flight or canceled at rename: neither
// clock resolves a canceled compare, so its predicted bit stays.
func TestResolveRepairsItsOwnBit(t *testing.T) {
	kinds := kindsOf(trace.EvCompare, 16)
	for _, off := range []bool{false, true} {
		for k := range 12 {
			c := predCfg()
			c.DisableGHRRepair = off
			p := NewPredicate(c, kinds)
			warm(p, 16)
			var lk core.Lookup
			_, ord := p.Predict(&lk, 5)
			for i := range k {
				var y core.Lookup
				p.Predict(&y, i)
			}
			before := p.spec.Bits
			p.Resolve(ord, !lk.Val1)
			want := before
			if !off {
				want ^= 1 << k
			}
			if p.spec.Bits != want {
				t.Errorf("repair off=%v, %d younger pushes: history %#x, want %#x", off, k, p.spec.Bits, want)
			}
		}
	}
}

// TestPerfectHistoryReadsRetired: under IdealPerfectGHR a prediction
// reads the retired history, not the speculative one.
func TestPerfectHistoryReadsRetired(t *testing.T) {
	for _, perfect := range []bool{false, true} {
		c := predCfg()
		c.IdealPerfectGHR = perfect
		p := NewPredicate(c, kindsOf(trace.EvCompare, 4))
		p.Retire(true)
		p.Retire(true)
		var lk, lk2 core.Lookup
		p.Predict(&lk, 0)
		spec := p.spec.Bits
		p.Predict(&lk2, 1)
		want := spec
		if perfect {
			want = 0b11
		}
		if lk2.GHR != want {
			t.Errorf("perfect=%v: predicted under %#x, want %#x", perfect, lk2.GHR, want)
		}
	}
}

// TestScoreIsTheProtocolAtZeroLag: Score predicts, trains and pushes as
// Predict, Resolve on a miss and Commit do back to back.
func TestScoreIsTheProtocolAtZeroLag(t *testing.T) {
	kinds := kindsOf(trace.EvCondBr, 32)
	c := ConfigOf(config.Default())
	a, b := ConvOf(c, kinds), ConvOf(c, kinds)
	rng := rand.New(rand.NewSource(2))
	for i := range 5000 {
		pc, taken := rng.Intn(32), rng.Intn(3) != 0
		var lk predictor.TwoLevelLookup
		snap, _ := b.Predict(&lk, pc)
		if lk.Taken != taken {
			b.Resolve(snap, taken)
		}
		b.Commit(&lk, taken)
		if miss := a.Score(pc, taken); miss != (lk.Taken != taken) || a.spec != b.spec || !reflect.DeepEqual(a.tl, b.tl) {
			t.Fatalf("event %d: Score and the protocol disagree", i)
		}
	}
}

// TestDecide is selective predication's table.
func TestDecide(t *testing.T) {
	sel, plain := predCfg(), predCfg()
	sel.Predication, plain.Predication = config.PredicationSelective, config.PredicationSelect
	ps, pn := NewPredicate(sel, nil), NewPredicate(plain, nil)
	for _, tc := range []struct {
		usable, val bool
		want        Guard
	}{{false, false, Select}, {false, true, Select}, {true, true, Unguard}, {true, false, Cancel}} {
		if got := ps.Decide(tc.usable, tc.val); got != tc.want {
			t.Errorf("selective, usable %v, value %v: %v, want %v", tc.usable, tc.val, got, tc.want)
		}
		if got := pn.Decide(tc.usable, tc.val); got != Select {
			t.Errorf("select predication: %v, want Select", got)
		}
	}
}
