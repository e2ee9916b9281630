package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/ifconvert"
	"repro/internal/isa"
	"repro/internal/program"
)

// refCursor is the byte-at-a-time decoder the windowed Cursor replaced,
// kept as the reference it must equal: every read checks the stream's
// length and every event is zeroed before it is filled.
type refCursor struct {
	buf []byte
	pos int
	err error
}

func (c *refCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.err = corrupt("truncated varint at offset %d", c.pos)
		return 0
	}
	c.pos += n
	return v
}

func (c *refCursor) byte() byte {
	if c.pos >= len(c.buf) {
		c.err = corrupt("truncated event at offset %d", c.pos)
		return 0
	}
	b := c.buf[c.pos]
	c.pos++
	return b
}

func (c *refCursor) next(ev *Event) bool {
	if c.err != nil || c.pos >= len(c.buf) {
		return false
	}
	*ev = Event{}
	ev.Gap = c.uvarint()
	kb := c.byte()
	ev.Kind = kb & 7
	switch ev.Kind {
	case EvCondBr:
		ev.Taken = kb&flagTaken != 0
		ev.PC = int(c.uvarint())
		ev.QP = c.byte()
	case EvCompare:
		ev.QPTrue = kb&fCmpQPTrue != 0
		ev.Unc = kb&fCmpUnc != 0
		ob := c.byte()
		ev.Out = isa.PredicateOutcome{
			Write1: ob&1 != 0, Val1: ob&2 != 0,
			Write2: ob&4 != 0, Val2: ob&8 != 0,
		}
		ev.PC = int(c.uvarint())
		ev.P1 = c.byte()
		ev.P2 = c.byte()
		if kb&fCmpGuarded != 0 {
			ev.QP = c.byte()
		}
	case EvCall:
		ev.PC = int(c.uvarint())
	case EvRet, EvBrInd:
		ev.Taken = kb&flagTaken != 0
		ev.PC = int(c.uvarint())
		ev.Target = int(c.uvarint())
	case EvHalt:
	default:
		c.err = corrupt("unknown event kind %d at offset %d", ev.Kind, c.pos)
		return false
	}
	if c.err == nil && (ev.QP >= isa.NumPred || ev.P1 >= isa.NumPred || ev.P2 >= isa.NumPred) {
		c.err = corrupt("predicate register out of range before offset %d", c.pos)
	}
	return c.err == nil
}

// matchOracle decodes events with both decoders and fails unless they
// yield the same events and both end cleanly or both fail with
// ErrCorrupt after the same events. Batches of 5 put batch boundaries
// at every phase of the tail. It returns the number of events decoded.
func matchOracle(t *testing.T, events []byte) int {
	t.Helper()
	ref := &refCursor{buf: events}
	var want []Event
	var ev Event
	for ref.next(&ev) {
		want = append(want, ev)
	}
	cur := (&Trace{Events: events}).EventCursor()
	buf := make([]Event, 5)
	var got []Event
	for n := cur.NextBatch(buf); n > 0; n = cur.NextBatch(buf) {
		got = append(got, buf[:n]...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d-byte stream: decoded %d events, the reference %d (errors %v, %v)",
			len(events), len(got), len(want), cur.Err(), ref.err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%d-byte stream: event %d = %+v, the reference %+v", len(events), i, got[i], want[i])
		}
	}
	if (cur.Err() == nil) != (ref.err == nil) {
		t.Fatalf("%d-byte stream: error %v, the reference %v", len(events), cur.Err(), ref.err)
	}
	if err := cur.Err(); err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d-byte stream: error %v does not wrap ErrCorrupt", len(events), err)
	}
	if cur.Err() == nil && cur.base+cur.pos != len(events) {
		t.Fatalf("%d-byte stream: cursor stopped at offset %d without an error", len(events), cur.base+cur.pos)
	}
	return len(got)
}

// TestCursorMatchesReference holds the windowed decoder to the
// byte-at-a-time reference on every suite binary's trace, plain and
// if-converted (50k steps), on the every-kind program's, and on every
// truncation of a short gzip trace and of the every-kind trace, so the
// stream's end falls at every byte of every kind of event.
func TestCursorMatchesReference(t *testing.T) {
	kinds, err := Record(context.Background(), everyKindProgram(), 0)
	if err != nil {
		t.Fatal(err)
	}
	streams := [][]byte{kinds.Events, nil, {0}}
	for _, s := range bench.Suite() {
		plain := bench.Build(s)
		res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, 100000)))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, p := range []*program.Program{plain, res.Prog} {
			tr, err := Record(context.Background(), p, 50000)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, tr.Events)
		}
	}
	for _, ev := range streams {
		matchOracle(t, ev)
	}
	short := recordBench(t, "gzip", 3000).Events
	for n := 0; n <= len(short); n++ {
		matchOracle(t, bytes.Clone(short[:n]))
	}
	// Every event kind, cut at every length.
	for n := 0; n <= min(len(kinds.Events), 400); n++ {
		matchOracle(t, bytes.Clone(kinds.Events[:n]))
	}
}
