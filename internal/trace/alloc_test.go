package trace

import (
	"context"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// everyKindProgram emits every event kind the cursor decodes: guarded
// and unguarded compares, conditional branches, calls, returns, taken
// and not-taken indirect branches, and the halt that ends the stream.
func everyKindProgram() *program.Program {
	b := program.NewBuilder("every-kind")
	b.MovI(1, 0).MovL(5, "next")
	b.Label("loop").
		Call(31, "sub").
		AndI(2, 1, 1).
		CmpI(isa.RelEQ, isa.CmpUnc, 1, 2, 2, 0).
		G(1).CmpI(isa.RelLT, isa.CmpNorm, 3, 4, 1, 50).
		G(1).BrInd(5). // not taken on odd iterations
		Label("next").
		AddI(1, 1, 1).
		CmpI(isa.RelLT, isa.CmpUnc, 6, 7, 1, 100).
		G(6).Br("loop").
		Halt()
	b.Label("sub").Ret(31)
	return b.Program()
}

// TestCursorAllocFree checks that decoding a whole trace, batched or
// one event at a time, allocates nothing once the caller owns the
// cursor and the event buffer. The built program puts every event kind
// on the measured path; gzip adds a long suite stream.
func TestCursorAllocFree(t *testing.T) {
	kinds, err := Record(context.Background(), everyKindProgram(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Trace{recordBench(t, "gzip", 200000), kinds} {
		buf := make([]Event, 256)
		var ev Event
		var c Cursor
		allocs := testing.AllocsPerRun(3, func() {
			c.reset(tr.Events)
			for c.NextBatch(buf) > 0 {
			}
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
			c.reset(tr.Events)
			for c.Next(&ev) {
			}
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
		})
		if allocs != 0 {
			t.Errorf("%v allocations decoding the whole trace, want 0", allocs)
		}
	}
}
