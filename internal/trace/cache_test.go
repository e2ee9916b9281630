package trace

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestDefaultDirFallbackIsPerUser(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix-style cache-dir resolution")
	}
	// With no env override and no resolvable user cache dir, the
	// fallback must land in a per-UID temp directory, not a path shared
	// by every user of the host.
	t.Setenv(EnvDir, "")
	t.Setenv("XDG_CACHE_HOME", "")
	t.Setenv("HOME", "")
	d := DefaultDir()
	want := fmt.Sprintf("predsim-traces-%d", os.Getuid())
	if filepath.Base(d) != want {
		t.Errorf("fallback dir = %q, want basename %q", d, want)
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv(EnvDir, "/some/where")
	if d := DefaultDir(); d != "/some/where" {
		t.Errorf("DefaultDir = %q with %s set", d, EnvDir)
	}
}

func TestStoreCreatesPrivateDir(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix permission bits")
	}
	dir := filepath.Join(t.TempDir(), "cache", "traces")
	if err := Store(dir, key(1), &Trace{}); err != nil {
		t.Fatal(err)
	}
	for p := dir; len(p) > len(t.TempDir()); p = filepath.Dir(p) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != 0o700 {
			t.Errorf("%s created with mode %o, want 0700", p, got)
		}
	}
	if _, err := Load(dir, key(1)); err != nil {
		t.Fatalf("round-trip load: %v", err)
	}
}

// TestDefaultDirPrecedence pins the resolution order: env override
// first, then the user cache dir, then the per-UID temp fallback.
func TestDefaultDirPrecedence(t *testing.T) {
	t.Setenv(EnvDir, "/explicit/override")
	if d := DefaultDir(); d != "/explicit/override" {
		t.Fatalf("env override ignored: %q", d)
	}
	t.Setenv(EnvDir, "")
	d := DefaultDir()
	if ucd, err := os.UserCacheDir(); err == nil {
		want := filepath.Join(ucd, "predsim", "traces")
		if d != want {
			t.Fatalf("user-cache default = %q, want %q", d, want)
		}
	} else {
		want := filepath.Join(os.TempDir(), fmt.Sprintf("predsim-traces-%d", os.Getuid()))
		if d != want {
			t.Fatalf("temp fallback = %q, want %q", d, want)
		}
	}
}

// TestKeyStability pins key properties: deterministic, 32 lowercase
// hex characters, and distinct for distinct binaries.
func TestKeyStability(t *testing.T) {
	k := key(1)
	if k != key(1) {
		t.Fatal("key is not deterministic")
	}
	if len(k) != 32 || strings.ToLower(k) != k {
		t.Fatalf("key %q is not 32 lowercase hex chars", k)
	}
	distinct := map[string]bool{}
	for _, h := range []uint64{0, 1, 2, 1 << 32, 1 << 63} {
		distinct[key(h)] = true
	}
	if len(distinct) != 5 {
		t.Fatalf("key collisions across program hashes: %v", distinct)
	}
}

// TestStoreRoundTrip covers the atomic write path: the entry lands at
// cachePath under a 0700 directory, the temp file is gone, and the
// trace round-trips through Load.
func TestStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tier")
	k := key(7)
	tr := &Trace{ProgHash: 7, Steps: 3, Halted: true, Events: []byte{0, EvHalt, 5}}
	if err := Store(dir, k, tr); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o700 {
		t.Errorf("cache dir mode = %o, want 700", perm)
	}
	if _, err := os.Stat(cachePath(dir, k)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, k)
	if err != nil || got == nil {
		t.Fatalf("load: %v, %v", got, err)
	}
	if got.ProgHash != tr.ProgHash || got.Steps != tr.Steps || !got.Halted || string(got.Events) != string(tr.Events) {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// TestStoreWriteFailureLeavesNoEntry proves a failed write never
// replaces (or creates) the cache entry and cleans up its temp file.
func TestStoreWriteFailureLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	k := key(7)
	boom := fmt.Errorf("write exploded")
	err := storeFile(dir, k, func(io.Writer) error { return boom })
	if err == nil || !strings.Contains(err.Error(), "write exploded") {
		t.Fatalf("want wrapped write error, got %v", err)
	}
	if _, err := os.Stat(cachePath(dir, k)); !os.IsNotExist(err) {
		t.Error("failed store left a cache entry behind")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed store left files behind: %v", entries)
	}
}

// TestAcquireRecordsOnceThenHits drives the one cache lookup: an empty
// cache records and stores, the same binary then hits, a larger budget
// than the cached trace covers records again, and every call is timed
// on the given clock.
func TestAcquireRecordsOnceThenHits(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Build(spec)
	dir := t.TempDir()
	var clock int64
	tick := func() int64 { clock++; return clock }
	for _, c := range []struct {
		budget  uint64
		outcome string
	}{{5000, "record"}, {5000, "hit"}, {4000, "hit"}, {6000, "record"}, {6000, "hit"}} {
		rec := recordings.Load()
		tr, pv, err := Acquire(context.Background(), dir, p, c.budget, tick)
		if err != nil {
			t.Fatal(err)
		}
		if pv.Outcome != c.outcome {
			t.Fatalf("budget %d: outcome %q, want %q", c.budget, pv.Outcome, c.outcome)
		}
		recorded := recordings.Load() - rec
		if (recorded == 1) != (c.outcome == "record") || recorded > 1 {
			t.Errorf("budget %d: %d recordings for outcome %q", c.budget, recorded, c.outcome)
		}
		if pv.LookupNS != 1 || (pv.RecordNS == 1) != (c.outcome == "record") {
			t.Errorf("budget %d: timings %+v on a one-tick-per-read clock", c.budget, pv)
		}
		if !tr.Covers(c.budget) || tr.ProgHash != HashProgram(p) {
			t.Errorf("budget %d: trace does not cover the run or names another binary", c.budget)
		}
	}
	if _, pv, err := Acquire(context.Background(), dir, p, 5000, nil); err != nil || pv != (Provenance{Outcome: "hit"}) {
		t.Errorf("untimed acquire: %+v, %v", pv, err)
	}
}
