package trace

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/emulator"
	"repro/internal/isa"
)

func recordBench(t *testing.T, name string, steps uint64) *Trace {
	t.Helper()
	spec, err := bench.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(context.Background(), bench.Build(spec), steps)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRecordAccountsEveryInstruction checks that the gaps and events of
// a recorded stream never account for more instructions than were
// emulated: plain instructions after the last event have no record,
// so the step count covers them.
func TestRecordAccountsEveryInstruction(t *testing.T) {
	tr := recordBench(t, "gzip", 50000)
	if tr.Steps != 50000 {
		t.Fatalf("recorded %d steps, want 50000", tr.Steps)
	}
	var total, branches, compares uint64
	cur := tr.EventCursor()
	var ev Event
	for cur.Next(&ev) {
		total += ev.Gap + 1
		switch ev.Kind {
		case EvCondBr:
			branches++
		case EvCompare:
			compares++
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if total > tr.Steps {
		t.Fatalf("events+gaps account for %d instructions, recorded %d", total, tr.Steps)
	}
	if branches == 0 || compares == 0 {
		t.Fatal("suspiciously empty trace")
	}
}

// TestRecordMatchesEmulator spot-checks recorded branch outcomes
// against a fresh emulator run of the same program.
func TestRecordMatchesEmulator(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Build(spec)
	tr, err := Record(context.Background(), p, 20000)
	if err != nil {
		t.Fatal(err)
	}
	em := emulator.New(p)
	type key struct {
		step uint64
		pc   int
	}
	taken := map[key]bool{}
	for step := uint64(0); step < 20000; step++ {
		info := em.Step()
		if info.IsBranch && p.At(info.PC).IsConditional() && p.At(info.PC).Op == isa.OpBr {
			taken[key{step, info.PC}] = info.Taken
		}
	}

	cur := tr.EventCursor()
	var ev Event
	var pos uint64
	for cur.Next(&ev) {
		pos += ev.Gap
		if ev.Kind == EvCondBr {
			want, ok := taken[key{pos, ev.PC}]
			if !ok {
				t.Fatalf("trace has cond branch at step %d pc %d; emulator does not", pos, ev.PC)
			}
			if want != ev.Taken {
				t.Fatalf("step %d pc %d: trace taken=%v, emulator %v", pos, ev.PC, ev.Taken, want)
			}
		}
		pos++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := recordBench(t, "twolf", 30000)
	var buf bytes.Buffer
	if err := tr.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgHash != tr.ProgHash || got.Steps != tr.Steps || got.Halted != tr.Halted {
		t.Fatalf("header mismatch: %+v vs %+v", got, tr)
	}
	if !bytes.Equal(got.Events, tr.Events) {
		t.Fatal("event stream mismatch after round trip")
	}
}

// TestEncodeLayout pins the serialized form byte for byte: magic,
// little-endian program hash, step count, halted flag, event length,
// then the events.
func TestEncodeLayout(t *testing.T) {
	tr := &Trace{ProgHash: 0x0807060504030201, Steps: 300, Halted: true, Events: []byte{1, 2, 3}}
	var buf bytes.Buffer
	if err := tr.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(magic), 1, 2, 3, 4, 5, 6, 7, 8, 0xac, 0x02, 1, 3, 1, 2, 3)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoded % x\nwant    % x", buf.Bytes(), want)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("want error for bad magic")
	}
	tr := recordBench(t, "gzip", 1000)
	var buf bytes.Buffer
	if err := tr.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("want error for truncated stream")
	}
}

// TestNextBatchMatchesSequentialNext pins the batched decode path of
// the single-pass replay engine: whatever the buffer size, NextBatch
// must yield exactly the event sequence of one-at-a-time Next calls,
// and report the same terminal state.
func TestNextBatchMatchesSequentialNext(t *testing.T) {
	tr := recordBench(t, "gzip", 20000)
	var want []Event
	seq := tr.EventCursor()
	var ev Event
	for seq.Next(&ev) {
		want = append(want, ev)
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 256, len(want), len(want) + 100} {
		cur := tr.EventCursor()
		buf := make([]Event, size)
		var got []Event
		for {
			n := cur.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(got) != len(want) {
			t.Fatalf("size %d: decoded %d events, want %d", size, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("size %d: event %d = %+v, want %+v", size, i, got[i], want[i])
			}
		}
	}

	// A malformed stream surfaces through Err after a short batch.
	bad := &Trace{Events: append(append([]byte(nil), tr.Events...), 0x05, 0xFF)}
	cur := bad.EventCursor()
	buf := make([]Event, 64)
	for cur.NextBatch(buf) > 0 {
	}
	if cur.Err() == nil {
		t.Fatal("want decode error from truncated tail")
	}
}

func TestRecordCancellation(t *testing.T) {
	spec, err := bench.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Build(spec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Record(ctx, p, 0); err == nil {
		t.Fatal("want context error from cancelled recording")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = Record(ctx2, p, 0) // unbounded: only the deadline stops it
	if err == nil {
		t.Fatal("want deadline error from unbounded recording")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; recording does not honor ctx promptly", elapsed)
	}
}

func TestCoversAndCache(t *testing.T) {
	tr := recordBench(t, "gzip", 5000)
	if !tr.Covers(5000) || !tr.Covers(100) {
		t.Fatal("trace should cover budgets within its steps")
	}
	if tr.Covers(5001) || tr.Covers(0) {
		t.Fatal("non-halted trace cannot cover a larger or unbounded budget")
	}

	dir := t.TempDir()
	k := key(tr.ProgHash)
	if got, err := Load(dir, k); err != nil || got != nil {
		t.Fatalf("empty cache: got %v, %v", got, err)
	}
	if err := Store(dir, k, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, k)
	if err != nil || got == nil {
		t.Fatalf("cache load: %v, %v", got, err)
	}
	if got.ProgHash != tr.ProgHash || got.Steps != tr.Steps {
		t.Fatal("cache round trip corrupted the trace")
	}
}
