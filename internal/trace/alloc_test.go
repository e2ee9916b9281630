package trace

import "testing"

// TestCursorAllocFree is the dynamic check behind the cursor's
// //simlint:hotpath markers: decoding a whole trace, batched or one
// event at a time, allocates nothing once the caller owns the cursor
// and the event buffer.
func TestCursorAllocFree(t *testing.T) {
	tr := recordBench(t, "gzip", 200000)
	buf := make([]Event, 256)
	var ev Event
	allocs := testing.AllocsPerRun(3, func() {
		c := Cursor{buf: tr.Events}
		for c.NextBatch(buf) > 0 {
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		c = Cursor{buf: tr.Events}
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
