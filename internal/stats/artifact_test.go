package stats

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

func buildTestArtifact(t *testing.T, tr *trace.Trace, commits uint64) *Artifact {
	t.Helper()
	a, err := BuildArtifact(context.Background(), tr, commits)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestArtifactRoundTrip pins the serialized format: an encoded artifact
// decodes to a bit-identical value, including coverage header and note
// stream.
func TestArtifactRoundTrip(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), trace.Options{MaxSteps: 20000})
	if err != nil {
		t.Fatal(err)
	}
	a := buildTestArtifact(t, tr, 15000)
	if a.ProgHash != tr.ProgHash || a.Cap != 15000 || a.Steps != 15000 || a.NoteCount == 0 {
		t.Fatalf("unexpected artifact header: %+v", a)
	}
	var buf bytes.Buffer
	if err := a.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Errorf("round-trip mismatch:\n in:  %+v\n out: %+v", a, got)
	}
}

// TestArtifactCovers pins the coverage gate both artifact-side and with
// the trace-length fallback used by Session.artifactFor.
func TestArtifactCovers(t *testing.T) {
	a := &Artifact{Steps: 1000}
	if a.Covers(0) {
		t.Error("unhalted artifact must not cover a run-to-halt replay")
	}
	if !a.Covers(1000) || a.Covers(1001) {
		t.Error("budget coverage gate wrong around Steps")
	}
	a.Halted = true
	if !a.Covers(0) || !a.Covers(1<<40) {
		t.Error("halted artifact covers every budget")
	}
}

// TestArtifactDecodeRejections pins the named decode errors: truncation
// and corruption are ErrArtifactCorrupt, a bumped format version is
// ErrArtifactVersion, a foreign magic is plain corruption.
func TestArtifactDecodeRejections(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), trace.Options{MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	a := buildTestArtifact(t, tr, 4000)
	var buf bytes.Buffer
	if err := a.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, cut := range []int{0, 3, len(noteMagic), len(noteMagic) + 4, len(good) / 2, len(good) - 1} {
		if _, err := DecodeArtifact(bytes.NewReader(good[:cut])); !errors.Is(err, ErrArtifactCorrupt) {
			t.Errorf("truncation at %d: want ErrArtifactCorrupt, got %v", cut, err)
		}
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xff // last note byte: checksum must catch it
	if _, err := DecodeArtifact(bytes.NewReader(flipped)); !errors.Is(err, ErrArtifactCorrupt) {
		t.Errorf("flipped note byte: want ErrArtifactCorrupt, got %v", err)
	}

	versioned := append([]byte(nil), good...)
	versioned[len(noteMagic)-1]++ // "PPNOTES1" -> "PPNOTES2"
	if _, err := DecodeArtifact(bytes.NewReader(versioned)); !errors.Is(err, ErrArtifactVersion) {
		t.Errorf("version bump: want ErrArtifactVersion, got %v", err)
	}

	foreign := append([]byte(nil), good...)
	copy(foreign, "XXNOTES1")
	if _, err := DecodeArtifact(bytes.NewReader(foreign)); !errors.Is(err, ErrArtifactCorrupt) {
		t.Errorf("foreign magic: want ErrArtifactCorrupt, got %v", err)
	}
}

// TestArtifactCacheRoundTrip covers the disk tier: store, hit, and the
// silent-miss contract for missing and corrupt entries — with the
// process counters moving accordingly.
func TestArtifactCacheRoundTrip(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), trace.Options{MaxSteps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	a := buildTestArtifact(t, tr, 8000)
	dir := t.TempDir()
	key := ArtifactKey("prog=test", "commits=8000")

	start := SnapshotArtifactCounters()
	if got, err := LoadArtifact(dir, key); err != nil || got != nil {
		t.Fatalf("missing entry: want (nil, nil), got (%v, %v)", got, err)
	}
	if err := StoreArtifact(dir, key, a); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Errorf("cache round-trip mismatch:\n in:  %+v\n out: %+v", a, got)
	}
	d := SnapshotArtifactCounters().Since(start)
	want := ArtifactCounters{
		CacheHits:    1,
		CacheMisses:  1,
		CacheStores:  1,
		BytesRead:    uint64(len(a.Notes)),
		BytesWritten: uint64(len(a.Notes)),
	}
	if d != want {
		t.Errorf("counter delta = %+v, want %+v", d, want)
	}

	// Corrupt the stored entry in place: the advisory cache must report
	// a miss, never an error.
	path := artifactPath(dir, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	start = SnapshotArtifactCounters()
	if got, err := LoadArtifact(dir, key); err != nil || got != nil {
		t.Fatalf("corrupt entry: want silent miss (nil, nil), got (%v, %v)", got, err)
	}
	if d := SnapshotArtifactCounters().Since(start); d.CacheMisses != 1 || d.CacheHits != 0 {
		t.Errorf("corrupt entry counter delta = %+v, want one miss", d)
	}
}

// TestReplayAllArtifactMatchesTraceFed is the artifact path's equality
// oracle, mirroring TestReplayAllMatchesIndependentReplays: for every
// suite benchmark, a replay fed from a materialized frontend artifact
// must produce per-scheme statistics bit-identical to the trace-fed
// single pass — at the artifact's own budget and at a smaller one
// (prefix coverage).
func TestReplayAllArtifactMatchesTraceFed(t *testing.T) {
	if testing.Short() {
		t.Skip("records a trace per suite benchmark; skipped with -short")
	}
	const commits = 40000
	cfgs := schemeCfgs()
	for _, spec := range bench.Suite() {
		tr, err := trace.Record(context.Background(), bench.Build(spec), trace.Options{MaxSteps: commits + 64})
		if err != nil {
			t.Fatal(err)
		}
		art := buildTestArtifact(t, tr, commits)
		for _, budget := range []uint64{commits, commits / 2} {
			want, err := ReplayAll(context.Background(), cfgs, tr, budget)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReplayAllArtifact(context.Background(), cfgs, tr, art, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s@%d: artifact-fed stats diverge from trace-fed:\n trace:    %+v\n artifact: %+v",
					spec.Name, budget, want, got)
			}
		}
	}
}

// TestReplayAllArtifactRejections pins the strict API's named errors:
// nil artifact, foreign program hash, and a note stream that runs dry
// mid-replay (an artifact that lied its way past the coverage gates).
func TestReplayAllArtifactRejections(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), trace.Options{MaxSteps: 20000})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := schemeCfgs()

	if _, err := ReplayAllArtifact(context.Background(), cfgs, tr, nil, 1000); err == nil {
		t.Error("nil artifact should fail")
	}

	foreign := buildTestArtifact(t, tr, 10000)
	foreign.ProgHash++
	if _, err := ReplayAllArtifact(context.Background(), cfgs, tr, foreign, 1000); !errors.Is(err, ErrArtifactMismatch) {
		t.Errorf("foreign program hash: want ErrArtifactMismatch, got %v", err)
	}

	dry := buildTestArtifact(t, tr, 1000)
	dry.Halted = true // lie: claims full coverage with 1000 steps of notes
	if _, err := ReplayAllArtifact(context.Background(), cfgs, tr, dry, 10000); !errors.Is(err, ErrArtifactDesync) {
		t.Errorf("dry note stream: want ErrArtifactDesync, got %v", err)
	}

	skewed := buildTestArtifact(t, tr, 10000)
	if v, _ := binary.Uvarint(skewed.Notes); v < 120 {
		skewed.Notes[0] += 8 // bump the first step delta by one, keep flags
		if _, err := ReplayAllArtifact(context.Background(), cfgs, tr, skewed, 10000); !errors.Is(err, ErrArtifactDesync) {
			t.Errorf("skewed note steps: want ErrArtifactDesync, got %v", err)
		}
	}
}

// TestSessionArtifactAttachAndFallback proves the session really feeds
// covered replays from the artifact and silently falls back to the live
// frontend for budgets past its coverage: after tampering with the
// attached artifact's notes, a covered replay fails (the notes were
// read) while an uncovered one still matches the trace-fed result (the
// notes were never touched).
func TestSessionArtifactAttachAndFallback(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), trace.Options{MaxSteps: 30000})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := schemeCfgs()
	const cap = 20000
	art := buildTestArtifact(t, tr, cap)

	sess := NewSession(tr)
	foreign := *art
	foreign.ProgHash++
	if err := sess.SetArtifact(&foreign); !errors.Is(err, ErrArtifactMismatch) {
		t.Fatalf("foreign artifact attach: want ErrArtifactMismatch, got %v", err)
	}
	if err := sess.SetArtifact(art); err != nil {
		t.Fatal(err)
	}
	if sess.Artifact() != art {
		t.Fatal("attached artifact not returned")
	}

	want, err := ReplayAll(context.Background(), cfgs, tr, cap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.ReplayAll(context.Background(), cfgs, cap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("artifact-fed session replay diverges from trace-fed")
	}

	// Tamper: covered budgets must now fail (proof the artifact is in
	// use), uncovered ones must still succeed via live-frontend fallback.
	if v, _ := binary.Uvarint(art.Notes); v >= 120 {
		t.Skip("first note delta too wide to tamper in place")
	}
	art.Notes[0] += 8
	if _, err := sess.ReplayAll(context.Background(), cfgs, cap); !errors.Is(err, ErrArtifactDesync) {
		t.Fatalf("covered replay after tampering: want ErrArtifactDesync, got %v", err)
	}
	wantFull, err := ReplayAll(context.Background(), cfgs, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotFull, err := sess.ReplayAll(context.Background(), cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantFull, gotFull) {
		t.Error("uncovered replay did not fall back to the live frontend")
	}
	if err := sess.SetArtifact(nil); err != nil || sess.Artifact() != nil {
		t.Fatalf("detach failed: %v", err)
	}
}

// TestBuildArtifactCancellation mirrors TestReplayCancellation for the
// frontend-only build pass.
func TestBuildArtifactCancellation(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(context.Background(), bench.Build(spec), trace.Options{MaxSteps: 400000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildArtifact(ctx, tr, 0); err == nil {
		t.Fatal("want context error from cancelled artifact build")
	}
}
