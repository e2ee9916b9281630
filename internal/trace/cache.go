package trace

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/program"
)

// EnvDir is the environment variable overriding the default on-disk
// trace cache directory.
const EnvDir = "PREDSIM_TRACE_DIR"

// cacheExt is the file extension of a cached trace.
const cacheExt = ".pptrace"

// DefaultDir returns the trace cache directory: $PREDSIM_TRACE_DIR,
// else <user cache dir>/predsim/traces, else a temp-dir fallback. The
// directory is not created until Store needs it. The temp-dir fallback
// is suffixed with the UID: the temp dir is typically shared across
// users on multi-user hosts, and an unsuffixed path would let one
// user's cache (created 0700, see Store) block every other user's
// Store calls.
func DefaultDir() string {
	if d := os.Getenv(EnvDir); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "predsim", "traces")
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("predsim-traces-%d", os.Getuid()))
}

// key is the cache key of the trace of the binary whose HashProgram is
// progHash. The binary alone decides the committed stream, so every
// entry point that runs the same binary shares one cache file. The
// format magic participates, so a format version bump invalidates
// every cached trace.
func key(progHash uint64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s\x00prog=%016x", magic, progHash)))
	return hex.EncodeToString(h[:16])
}

func cachePath(dir, key string) string {
	return filepath.Join(dir, key+cacheExt)
}

// Provenance says how Acquire obtained a trace and what each step cost
// on the caller's clock (zero when untimed).
type Provenance struct {
	Outcome  string // "hit" (loaded from the cache) or "record" (emulated, then stored)
	LookupNS int64  // the cache lookup, hit or miss
	RecordNS int64  // the recording; 0 on a hit
}

// Acquire returns a trace of p that covers a run of budget commits
// (0 = to halt): from the cache in dir ("" = DefaultDir) when a cached
// trace of the same binary covers the budget, else recorded by the
// functional emulator and stored. now is the clock the lookup and
// recording are timed on; nil leaves them untimed.
func Acquire(ctx context.Context, dir string, p *program.Program, budget uint64, now func() int64) (*Trace, Provenance, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	if now == nil {
		now = func() int64 { return 0 }
	}
	var pv Provenance
	hash := HashProgram(p)
	k := key(hash)
	t0 := now()
	t, _ := Load(dir, k)
	pv.LookupNS = now() - t0
	if t != nil && t.ProgHash == hash && t.Covers(budget) {
		pv.Outcome = "hit"
		return t, pv, nil
	}
	t0 = now()
	t, err := Record(ctx, p, budget)
	if err != nil {
		return nil, pv, err
	}
	pv.RecordNS = now() - t0
	pv.Outcome = "record"
	// The cache is advisory: a failed store costs a re-recording next
	// process, never the run.
	_ = Store(dir, k, t)
	return t, pv, nil
}

// Load reads a cached trace. A missing or unreadable/corrupt file is a
// cache miss (nil, nil): the cache is advisory, never load-bearing.
// Hits and misses count on the trace.cache.hits / trace.cache.misses
// counters (misses paired with hits prove record-once behaviour: a
// repeated sweep or experiment should re-record nothing, only hit).
func Load(dir, key string) (*Trace, error) {
	data, err := os.ReadFile(cachePath(dir, key))
	if err != nil {
		cacheMisses.Inc()
		return nil, nil
	}
	t, err := decode(data)
	if err != nil {
		cacheMisses.Inc()
		return nil, nil
	}
	cacheHits.Inc()
	return t, nil
}

// Store writes a trace into the cache atomically (temp file + rename),
// so concurrent writers and readers never see a torn file.
func Store(dir, key string, t *Trace) error {
	if err := storeFile(dir, key, t.EncodeTo); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	cacheStores.Inc()
	return nil
}

// storeFile writes one cache entry through write into a temp file and
// renames it into place. Cache directories are created private (0700):
// cache contents reveal which workloads a user runs, and nothing but
// this process needs to read them.
func storeFile(dir, key string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache close: %w", err)
	}
	if err := os.Rename(tmp.Name(), cachePath(dir, key)); err != nil {
		return fmt.Errorf("cache rename: %w", err)
	}
	return nil
}
