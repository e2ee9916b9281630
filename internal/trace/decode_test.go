package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// oversizedEventLength is a 32-byte trace file whose header is valid
// but whose event-length varint claims 2^62 bytes.
func oversizedEventLength(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&Trace{}).EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b = binary.AppendUvarint(b[:len(b)-1], 1<<62) // the empty stream's length is its last byte
	for len(b) < 32 {
		b = append(b, 0)
	}
	return b
}

// TestDecodeRejectsOversizedEventLength pins the bound on the event
// length: a header claiming more event bytes than the input holds is
// an error, not an attempt to allocate them. Load counts such a cache
// file as a miss.
func TestDecodeRejectsOversizedEventLength(t *testing.T) {
	data := oversizedEventLength(t)
	if len(data) != 32 {
		t.Fatalf("test input is %d bytes, want 32", len(data))
	}
	if tr, err := Decode(bytes.NewReader(data)); err == nil {
		t.Fatalf("decoded %+v from a header claiming 2^62 event bytes", tr)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "oversized.pptrace"), data, 0o600); err != nil {
		t.Fatal(err)
	}
	misses, hits := cacheMisses.Load(), cacheHits.Load()
	if tr, err := Load(dir, "oversized"); tr != nil || err != nil {
		t.Fatalf("Load = %v, %v; want a miss (nil, nil)", tr, err)
	}
	if cacheMisses.Load() != misses+1 || cacheHits.Load() != hits {
		t.Errorf("Load counted %d misses and %d hits, want 1 and 0",
			cacheMisses.Load()-misses, cacheHits.Load()-hits)
	}
}

// failingReader fails every read.
type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestDecodeErrorsWrapErrCorrupt pins the decoder's error types: every
// malformed header and event stream reports ErrCorrupt, still visible
// through a caller's %w wrapping, while a failed read keeps the
// reader's own error and is not reported as corruption.
func TestDecodeErrorsWrapErrCorrupt(t *testing.T) {
	var good bytes.Buffer
	if err := (&Trace{Events: []byte{0, EvHalt}}).EncodeTo(&good); err != nil {
		t.Fatal(err)
	}
	header := good.Bytes()[:good.Len()-3] // magic, hash, steps, halted
	for name, data := range map[string][]byte{
		"bad magic":       []byte("PPTRACE0"),
		"short hash":      []byte(magic + "1234"),
		"no halted flag":  header[:len(header)-1],
		"no event length": header,
		"oversized":       oversizedEventLength(t),
	} {
		_, err := Decode(bytes.NewReader(data))
		if wrapped := fmt.Errorf("load: %w", err); !errors.Is(wrapped, ErrCorrupt) {
			t.Errorf("%s: Decode error %v does not wrap ErrCorrupt", name, err)
		}
	}
	for name, events := range map[string][]byte{
		"truncated varint": {0x80},
		"truncated event":  {0},
		"unknown kind":     {0, 7},
		"guard register":   {0, EvCondBr, 0, isa.NumPred},
	} {
		c := (&Trace{Events: events}).EventCursor()
		var ev Event
		for c.Next(&ev) {
		}
		if wrapped := fmt.Errorf("replay: %w", c.Err()); !errors.Is(wrapped, ErrCorrupt) {
			t.Errorf("%s: cursor error %v does not wrap ErrCorrupt", name, c.Err())
		}
	}
	readErr := errors.New("disk on fire")
	_, err := Decode(failingReader{readErr})
	if !errors.Is(err, readErr) || errors.Is(err, ErrCorrupt) {
		t.Errorf("failed read: got %v, want the reader's error and not ErrCorrupt", err)
	}
	if _, err := Decode(bytes.NewReader(good.Bytes())); err != nil {
		t.Fatalf("well-formed trace: %v", err)
	}
}

// FuzzDecode holds the decoder to its contract on arbitrary bytes:
// Decode followed by a full batched cursor walk never panics or hangs,
// reports every failure as an error wrapping ErrCorrupt, and yields the
// byte-at-a-time reference's events (matchOracle), which rejects any
// predicate register replay could not index its per-register tables
// with. A trace that decodes re-encodes to one that decodes the same.
// The seed corpus (testdata/fuzz) is a small recorded trace holding
// every event kind, truncations of it, a stream ending in a 31-byte
// return, the longest event (tail-whole), the same stream cut 1 to 30
// bytes short of that event's end (tail-cut-*), the oversized event
// length and a branch guarded by register 64.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := tr.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if again.ProgHash != tr.ProgHash || again.Steps != tr.Steps || again.Halted != tr.Halted ||
			!bytes.Equal(again.Events, tr.Events) {
			t.Fatal("re-encoded trace decodes differently")
		}

		matchOracle(t, tr.Events)
	})
}
