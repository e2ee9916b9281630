package stats

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Frontend artifact: the scheme-independent half of a replay —
// predicate reconstruction, shared-resolution positions, PEP-PA
// selectors — materialized as a versioned, varint-encoded note stream.
// The frontend's per-event products are bit-identical across every
// configuration that varies only scheme/organization knobs, so a sweep
// can compute them once (or load them from the second-level disk
// cache, artifactcache.go) and feed every replay from the artifact,
// skipping the annotate pass entirely. An artifact-fed replay is
// bit-identical to a trace-fed one: the engines read only the notes
// and the trace events, never the live frontend state.

// noteMagic identifies a frontend-artifact stream; the trailing digit
// is the format version and must change with any encoding change (it
// also feeds the disk-cache key, so stale files are never misread as
// current).
const noteMagic = "PPNOTES1"

// Named artifact failures. Decode-time rejections (corrupt, version)
// keep the disk cache advisory — LoadArtifact maps them to a miss —
// while mismatch and desync surface to callers of the strict APIs.
var (
	// ErrArtifactCorrupt is a truncated, malformed or checksum-failing
	// artifact stream.
	ErrArtifactCorrupt = errors.New("stats: corrupt frontend artifact")
	// ErrArtifactVersion is an artifact of a different format version
	// (the magic's "PPNOTES" stem matches, the version byte does not).
	ErrArtifactVersion = errors.New("stats: frontend artifact format version mismatch")
	// ErrArtifactMismatch is an artifact recorded from a different
	// program than the trace it is being replayed against.
	ErrArtifactMismatch = errors.New("stats: frontend artifact does not match trace")
	// ErrArtifactDesync is an artifact whose note stream runs dry or
	// disagrees with the trace's admitted events mid-replay — an
	// artifact built from a different trace or budget that slipped past
	// the coverage gates.
	ErrArtifactDesync = errors.New("stats: frontend artifact desynchronized from trace")
)

// Artifact is one materialized frontend pass: the per-event notes of a
// (trace, commit budget) replay, delta-encoded as one uvarint per note
// — (step delta << 3) | flags, with res1/res2/sel on the low three
// bits. Step deltas are at least 1 (every admitted event commits), so
// a typical note costs one byte.
type Artifact struct {
	ProgHash  uint64 // HashProgram of the traced binary (trace.ProgHash)
	Cap       uint64 // commit budget at build time (0 = built to trace end)
	Steps     uint64 // committed instructions the notes cover
	Halted    bool   // the note stream extends to the program's halt
	NoteCount uint64 // notes in the stream
	Notes     []byte // varint-encoded note stream
}

// Covers reports whether the artifact is sufficient to feed a replay
// of the given commit budget (0 = to halt): either the notes extend to
// the program's halt, or at least budget committed instructions are
// covered. Mirrors trace.Trace.Covers.
func (a *Artifact) Covers(budget uint64) bool {
	if a.Halted {
		return true
	}
	return budget > 0 && a.Steps >= budget
}

// EncodeTo serializes the artifact: magic, program hash, coverage
// header, note count, note-stream length, a CRC-32 (IEEE) of the note
// bytes, then the notes. The checksum makes mid-body corruption a
// decode-time rejection instead of a replay-time desync.
func (a *Artifact) EncodeTo(w io.Writer) error {
	head := make([]byte, 0, len(noteMagic)+8+5*binary.MaxVarintLen64+5)
	head = append(head, noteMagic...)
	head = binary.LittleEndian.AppendUint64(head, a.ProgHash)
	head = binary.AppendUvarint(head, a.Cap)
	head = binary.AppendUvarint(head, a.Steps)
	if a.Halted {
		head = append(head, 1)
	} else {
		head = append(head, 0)
	}
	head = binary.AppendUvarint(head, a.NoteCount)
	head = binary.AppendUvarint(head, uint64(len(a.Notes)))
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(a.Notes))
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(a.Notes)
	return err
}

// DecodeArtifact parses a serialized artifact, rejecting other format
// versions with ErrArtifactVersion and anything truncated, malformed
// or checksum-failing with ErrArtifactCorrupt.
func DecodeArtifact(r io.Reader) (*Artifact, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrArtifactCorrupt, err)
	}
	if len(raw) < len(noteMagic) {
		return nil, fmt.Errorf("%w: short header", ErrArtifactCorrupt)
	}
	head, rest := string(raw[:len(noteMagic)]), raw[len(noteMagic):]
	if head != noteMagic {
		if head[:len(noteMagic)-1] == noteMagic[:len(noteMagic)-1] {
			return nil, fmt.Errorf("%w: got %q, want %q", ErrArtifactVersion, head, noteMagic)
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrArtifactCorrupt, head)
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("%w: short program hash", ErrArtifactCorrupt)
	}
	a := &Artifact{ProgHash: binary.LittleEndian.Uint64(rest)}
	rest = rest[8:]
	uvarint := func(field string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated %s", ErrArtifactCorrupt, field)
		}
		rest = rest[n:]
		return v, nil
	}
	if a.Cap, err = uvarint("cap"); err != nil {
		return nil, err
	}
	if a.Steps, err = uvarint("steps"); err != nil {
		return nil, err
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: truncated halted flag", ErrArtifactCorrupt)
	}
	a.Halted = rest[0] != 0
	rest = rest[1:]
	if a.NoteCount, err = uvarint("note count"); err != nil {
		return nil, err
	}
	noteLen, err := uvarint("note length")
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: truncated checksum", ErrArtifactCorrupt)
	}
	sum := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(len(rest)) != noteLen {
		return nil, fmt.Errorf("%w: note stream is %d bytes, header says %d", ErrArtifactCorrupt, len(rest), noteLen)
	}
	if crc32.ChecksumIEEE(rest) != sum {
		return nil, fmt.Errorf("%w: note stream checksum mismatch", ErrArtifactCorrupt)
	}
	a.Notes = rest
	return a, nil
}

// ArtifactCursor iterates an artifact's note stream without allocating
// per note — the artifact counterpart of trace.Cursor.
type ArtifactCursor struct {
	buf  []byte
	pos  int
	prev uint64 // absolute step of the last decoded note (delta base)
	err  error
}

// Cursor returns a cursor over the artifact's notes.
func (a *Artifact) Cursor() *ArtifactCursor { return &ArtifactCursor{buf: a.Notes} }

// Err reports a malformed-stream error encountered by Next.
func (c *ArtifactCursor) Err() error { return c.err }

// Next decodes the next note into nt. It returns false at end of
// stream or on a malformed stream (check Err to distinguish).
//
//simlint:hotpath
func (c *ArtifactCursor) Next(nt *note) bool {
	if c.err != nil || c.pos >= len(c.buf) {
		return false
	}
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.err = fmt.Errorf("%w: truncated note varint at offset %d", ErrArtifactCorrupt, c.pos) //simlint:ignore hotalloc cold malformed-stream path, taken at most once per cursor
		return false
	}
	c.pos += n
	c.prev += v >> 3
	nt.step = c.prev
	nt.res1 = v&1 != 0
	nt.res2 = v&2 != 0
	nt.sel = v&4 != 0
	return true
}

// NextBatch decodes up to len(buf) notes into buf and returns how many
// were decoded — the batched decode feeding a replay's engines, exactly
// mirroring trace.Cursor.NextBatch. Zero-alloc: the caller owns buf
// and reuses it across calls. Returns 0 at end of stream or on a
// malformed stream (check Err to distinguish).
//
//simlint:hotpath
func (c *ArtifactCursor) NextBatch(buf []note) int {
	n := 0
	for n < len(buf) && c.Next(&buf[n]) {
		n++
	}
	return n
}

// artifactWriter accumulates the delta-encoded note stream during
// BuildArtifact. Cold path relative to replay (one pass per trace ×
// budget, amortized by the disk cache), so the plain append is fine.
type artifactWriter struct {
	buf  []byte
	prev uint64
	n    uint64
}

func (w *artifactWriter) add(nt *note) {
	v := (nt.step - w.prev) << 3
	if nt.res1 {
		v |= 1
	}
	if nt.res2 {
		v |= 2
	}
	if nt.sel {
		v |= 4
	}
	w.buf = binary.AppendUvarint(w.buf, v)
	w.prev = nt.step
	w.n++
}

// BuildArtifact runs one frontend-only pass over the trace — the exact
// admission loop of a replay (budget truncation, marker compaction,
// halt handling), with no engines attached — and materializes the note
// stream for the given commit budget (0 = the whole trace).
func BuildArtifact(ctx context.Context, tr *trace.Trace, commits uint64) (*Artifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var fe frontend
	fe.predVal[isa.P0] = true
	fe.prevVal[isa.P0] = true
	cur := tr.EventCursor()
	evs := make([]trace.Event, batchEvents)
	var nt note
	var w artifactWriter
	var committed uint64
	halted := false
	done := false
	for !done {
		nDec := cur.NextBatch(evs)
		if nDec == 0 {
			break
		}
		for i := 0; i < nDec; i++ {
			ev := &evs[i]
			committed += ev.Gap
			if commits > 0 && committed >= commits {
				committed = commits
				done = true
				break
			}
			if ev.Kind != trace.EvMarker {
				committed++
				fe.step = committed
				if ev.Kind == trace.EvHalt {
					halted = true
					done = true
					break
				}
				fe.annotate(ev, &nt)
				w.add(&nt)
			}
			if commits > 0 && committed >= commits {
				done = true
				break
			}
		}
		if err := ctx.Err(); err != nil && !done {
			return nil, err
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	artifactBuilds.Inc()
	return &Artifact{
		ProgHash:  tr.ProgHash,
		Cap:       commits,
		Steps:     committed,
		Halted:    halted,
		NoteCount: w.n,
		Notes:     w.buf,
	}, nil
}
