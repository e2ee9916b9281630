package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
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
