// Package trace implements the record-once branch/predicate trace
// subsystem: a compact varint-encoded binary format for the committed
// instruction stream of one benchmark run, a context-aware recorder
// that steps the functional emulator itself (Record), and a disk cache
// keyed by the traced binary, so a binary is recorded once and its
// trace reused across entry points and processes.
//
// A trace carries exactly the inputs trace replay (internal/stats)
// reads from the committed path: conditional-branch outcomes and
// guards, compare predicate outcomes with their destinations and, for
// a guarded compare, its guard, indirect targets and calls/returns,
// each with the number of plain instructions before it. It holds no
// value or timing state. Replaying it through a predictor organization
// reproduces the predictor's commit-order behaviour one to two orders
// of magnitude faster than the full out-of-order pipeline, which is
// what makes full-suite predictor sweeps cheap (the Figure 5/6
// questions are functions of this stream, not of cycle timing).
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/isa"
	"repro/internal/program"
)

// magic identifies a trace stream; the trailing digit is the format
// version and must change with any encoding change (it also feeds the
// disk-cache key, so stale files are never misread as current).
const magic = "PPTRACE3"

// Event kinds (low 3 bits of the kind byte).
const (
	EvCondBr  = 1 // conditional direct branch
	EvCompare = 2 // predicate-producing compare
	EvCall    = 3 // call (RAS push)
	EvRet     = 4 // return (RAS pop, indirect target)
	EvBrInd   = 5 // indirect branch (target-table consumer)
	EvHalt    = 6 // halt committed
)

// Kind-specific flag bits (high 5 bits of the kind byte).
const (
	flagTaken = 1 << 3 // EvCondBr, EvRet, EvBrInd: branch was taken

	fCmpQPTrue  = 1 << 4 // EvCompare: qualifying predicate was true
	fCmpGuarded = 1 << 5 // EvCompare: guarded by a predicate other than p0; the guard follows P2
	fCmpUnc     = 1 << 6 // EvCompare: unc-type compare
)

// Event is one decoded trace record. A single Event value is reused
// across Cursor.Next calls; fields are only meaningful for the kinds
// that set them.
type Event struct {
	Gap uint64 // committed instructions since the previous event
	PC  int
	// EvRet / EvBrInd.
	Target int

	Kind uint8
	// EvCondBr / EvRet / EvBrInd.
	Taken bool
	// EvCondBr / EvCompare: the guarding predicate register (p0 for an
	// unguarded compare).
	QP uint8

	// EvCompare.
	QPTrue bool
	Unc    bool
	Out    isa.PredicateOutcome
	P1, P2 uint8
}

// Trace is one recorded committed-instruction stream.
type Trace struct {
	ProgHash uint64 // HashProgram of the traced binary
	Steps    uint64 // committed instructions recorded
	Halted   bool   // the program halted within the budget

	// Events is the varint-encoded event stream. Plain instructions
	// after the last event have no record: Steps accounts for them.
	Events []byte
}

// Covers reports whether the trace is sufficient to replay a run of
// the given commit budget (0 = to halt): either the program halted
// inside the trace, or at least budget instructions were recorded.
func (t *Trace) Covers(budget uint64) bool {
	if t.Halted {
		return true
	}
	return budget > 0 && t.Steps >= budget
}

// HashProgram fingerprints a program's instruction stream (FNV-1a over
// every architecturally meaningful field), for trace/cache keying.
func HashProgram(p *program.Program) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		w(uint64(in.Op) | uint64(in.QP)<<8 | uint64(in.Rd)<<16 | uint64(in.Rs1)<<24 |
			uint64(in.Rs2)<<32 | uint64(in.P1)<<40 | uint64(in.P2)<<48 | uint64(in.Rel)<<56)
		w(uint64(in.Imm))
		w(uint64(in.CType) | uint64(uint32(in.Target))<<8)
	}
	return h.Sum64()
}

// EncodeTo serializes the trace: a header, then the event stream
// written straight from Events.
func (t *Trace) EncodeTo(w io.Writer) error {
	hdr := make([]byte, 0, len(magic)+8+2*binary.MaxVarintLen64+1)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, t.ProgHash)
	hdr = binary.AppendUvarint(hdr, t.Steps)
	var halted byte
	if t.Halted {
		halted = 1
	}
	hdr = append(hdr, halted)
	hdr = binary.AppendUvarint(hdr, uint64(len(t.Events)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(t.Events)
	return err
}

// ErrCorrupt is wrapped by every error Decode and Cursor report for a
// malformed stream, so a caller can tell a corrupt trace (errors.Is)
// from a failed read, which Decode wraps on its own.
var ErrCorrupt = errors.New("trace: corrupt stream")

// corrupt builds a malformed-stream error wrapping ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Decode parses a serialized trace. Malformed input of any shape is an
// error wrapping ErrCorrupt, never a panic or an allocation larger than
// the input.
func Decode(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return decode(data)
}

// decode parses a serialized trace held in data. The event stream
// aliases data, so a loaded file is read into memory once.
func decode(data []byte) (*Trace, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, corrupt("bad magic %q", data[:min(len(data), len(magic))])
	}
	rest := data[len(magic):]
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, corrupt("%s: malformed varint", what)
		}
		rest = rest[n:]
		return v, nil
	}
	t := &Trace{}
	if len(rest) < 8 {
		return nil, corrupt("short program hash")
	}
	t.ProgHash = binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	var err error
	if t.Steps, err = uvarint("step count"); err != nil {
		return nil, err
	}
	if len(rest) == 0 {
		return nil, corrupt("missing halted flag")
	}
	t.Halted = rest[0] != 0
	rest = rest[1:]
	evLen, err := uvarint("event length")
	if err != nil {
		return nil, err
	}
	if evLen != uint64(len(rest)) {
		return nil, corrupt("event length %d, but %d bytes remain", evLen, len(rest))
	}
	t.Events = rest
	return t, nil
}

// window is the span of bytes the cursor decodes one event from: more
// than the longest event encoding (maxEvent), rounded to a power of two
// so a masked index needs no bounds check.
const window = 32

// maxEvent is the longest encoding of one event: a return's or an
// indirect branch's gap, PC and target varints, 10 bytes each, and its
// kind byte.
const maxEvent = 3*binary.MaxVarintLen64 + 1

// Cursor iterates the event stream without allocating per event. Every
// event is decoded through one path, from a window of bytes that is
// never shorter than an event: the stream itself while more than
// maxEvent bytes remain, then tail, a zero-padded copy of the stream's
// last bytes. No read checks the stream's length; an event that reads
// into the padding is reported truncated.
type Cursor struct {
	buf  []byte // the stream, then tail
	pos  int    // offset in buf of the next event
	fast int    // an event starting before fast has a whole window in buf
	end  int    // the bytes of buf that hold the stream
	base int    // the stream offset of buf[0]
	err  error
	tail [2 * window]byte
}

// EventCursor returns a cursor over the trace's events.
func (t *Trace) EventCursor() *Cursor {
	c := &Cursor{}
	c.reset(t.Events)
	return c
}

// reset points c at the start of the event stream events.
func (c *Cursor) reset(events []byte) {
	*c = Cursor{buf: events, fast: len(events) - maxEvent, end: len(events)}
}

// Err reports a malformed-stream error encountered by Next.
func (c *Cursor) Err() error { return c.err }

// toTail moves the cursor onto tail, a zero-padded copy of the bytes
// left in the stream, once fewer than a window's worth remain. It
// reports false at the end of the stream or after an error.
func (c *Cursor) toTail() bool {
	if c.err != nil || c.pos >= c.end {
		return false
	}
	n := copy(c.tail[:], c.buf[c.pos:c.end])
	c.base += c.pos
	c.buf, c.pos, c.end, c.fast = c.tail[:], 0, n, n
	return true
}

// uvarint reads the varint at w[i], as binary.Uvarint does, and returns
// its value, the offset past it, and false for one longer than
// binary.MaxVarintLen64 bytes or past 64 bits. Next reads a one-byte
// varint itself and calls uvarint for a longer one. Indices are masked
// into the window: a valid event never reaches its end.
func uvarint(w *[window]byte, i int) (uint64, int, bool) {
	var x uint64
	for s := uint(0); s < 64; s += 7 {
		b := w[i&(window-1)]
		i++
		if b < 0x80 {
			return x | uint64(b)<<s, i, s < 63 || b <= 1
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, i, false
}

// Next decodes the next event into ev, writing each of its fields once.
// It returns false at end of stream or on a malformed stream (check Err
// to distinguish).
func (c *Cursor) Next(ev *Event) bool {
	if c.pos >= c.fast && !c.toTail() {
		return false
	}
	w := (*[window]byte)(c.buf[c.pos:])
	ok, okPC, okTarget := true, true, true
	gap, i := uint64(w[0]), 1
	if gap >= 0x80 {
		gap, i, ok = uvarint(w, 0)
	}
	kb := w[i&(window-1)]
	kind := kb & 7
	pc := uint64(w[(i+1)&(window-1)]) // every kind's but a compare's and a halt's
	i += 2
	var target uint64
	var taken, qpTrue, unc bool
	var qp, ob, p1, p2 uint8
	switch kind {
	case EvCondBr:
		if pc >= 0x80 {
			pc, i, okPC = uvarint(w, i-1)
		}
		taken, qp = kb&flagTaken != 0, w[i&(window-1)]
		i++
	case EvCompare:
		ob, pc = byte(pc), uint64(w[i&(window-1)])
		i++
		if pc >= 0x80 {
			pc, i, okPC = uvarint(w, i-1)
		}
		p1, p2 = w[i&(window-1)], w[(i+1)&(window-1)]
		if kb&fCmpGuarded != 0 {
			qp = w[(i+2)&(window-1)]
			i++
		}
		i += 2
		qpTrue, unc = kb&fCmpQPTrue != 0, kb&fCmpUnc != 0
	case EvCall:
		if pc >= 0x80 {
			pc, i, okPC = uvarint(w, i-1)
		}
	case EvRet, EvBrInd:
		if pc >= 0x80 {
			pc, i, okPC = uvarint(w, i-1)
		}
		target = uint64(w[i&(window-1)])
		i++
		if target >= 0x80 {
			target, i, okTarget = uvarint(w, i-1)
		}
		taken = kb&flagTaken != 0
	case EvHalt:
		pc = 0
		i-- // no PC
	default:
		ok = false
	}
	ok = ok && okPC && okTarget
	// Replay indexes fixed per-register tables with QP, P1 and P2; with
	// NumPred a power of two, their OR is in range exactly when all are.
	if !ok || c.pos+i > c.end || qp|p1|p2 >= isa.NumPred {
		c.err = c.malformed(i, kb, ok)
		return false
	}
	ev.Gap, ev.PC, ev.Target = gap, int(pc), int(target)
	ev.Kind, ev.Taken, ev.QP = kind, taken, qp
	ev.QPTrue, ev.Unc = qpTrue, unc
	ev.Out = isa.PredicateOutcome{Write1: ob&1 != 0, Val1: ob&2 != 0, Write2: ob&4 != 0, Val2: ob&8 != 0}
	ev.P1, ev.P2 = p1, p2
	c.pos += i
	return true
}

// malformed builds the error of the event at c.pos, whose kind byte is
// kb, that Next rejected after reading i bytes of it; ok is false when
// one of its varints is malformed or its kind unknown.
func (c *Cursor) malformed(i int, kb byte, ok bool) error {
	at := c.base + c.pos
	switch k := kb & 7; {
	case c.pos+i > c.end:
		return corrupt("truncated event at offset %d", at)
	case k == 0 || k == 7:
		return corrupt("unknown event kind %d at offset %d", k, at)
	case !ok:
		return corrupt("malformed varint in event at offset %d", at)
	}
	return corrupt("predicate register out of range in event at offset %d", at)
}

// NextBatch decodes up to len(buf) events into buf and returns how many
// were decoded — the batched front half of a single-pass multi-consumer
// replay, where the varint stream is decoded once into a reused event
// buffer and each consumer then walks the decoded slice. Zero-alloc:
// the caller owns buf and reuses it across calls. Returns 0 at end of
// stream or on a malformed stream (check Err to distinguish); a short
// batch (0 < n < len(buf)) means the stream ended or turned malformed
// mid-batch, and the n decoded events are still valid.
func (c *Cursor) NextBatch(buf []Event) int {
	n := 0
	for n < len(buf) && c.Next(&buf[n]) {
		n++
	}
	return n
}
