// Package cachecore is the plumbing under the simulator's
// content-addressed disk cache of recorded traces (internal/trace): an
// env-overridable default directory with a per-UID temp fallback, a
// stable key derivation from format magic + content parts, private
// (0700) cache directories, and atomic temp-file-plus-rename stores.
//
// A cache built on this package is advisory: a Load miss (missing,
// unreadable or corrupt file) must never be load-bearing, and Store
// failures are safe to ignore. Cache-specific policy — what a valid hit
// is, how misses count on the obs registry — stays with the cache.
package cachecore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// DefaultDir resolves a cache tier's default directory: the envVar
// override, else <user cache dir>/predsim/<sub>, else a temp-dir
// fallback. The directory is not created until Store needs it. The
// temp-dir fallback is suffixed with the UID: the temp dir is
// typically shared across users on multi-user hosts, and an unsuffixed
// path would let one user's cache (created 0700, see Store) block
// every other user's Store calls.
func DefaultDir(envVar, sub, tempStem string) string {
	if d := os.Getenv(envVar); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "predsim", sub)
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("%s-%d", tempStem, os.Getuid()))
}

// Key derives a stable cache key from the tier's format magic and the
// content parts (benchmark spec, budget, binary hash — the caller
// decides). The magic participates so a format version bump invalidates
// every key of its tier, and any part changing changes the key.
func Key(magic string, parts ...string) string {
	h := sha256.Sum256([]byte(magic + "\x00" + strings.Join(parts, "\x00")))
	return hex.EncodeToString(h[:16])
}

// Path is the cache file path for a key within a tier's directory.
func Path(dir, key, ext string) string {
	return filepath.Join(dir, key+ext)
}

// Store writes one cache entry atomically (temp file + rename), so
// concurrent writers and readers never see a torn file. Cache
// directories are created private (0700): cache contents reveal which
// workloads a user runs, and nothing but this process needs to read
// them. write receives the temp file and must emit the complete entry.
func Store(dir, key, ext string, write func(io.Writer) error) error {
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
	if err := os.Rename(tmp.Name(), Path(dir, key, ext)); err != nil {
		return fmt.Errorf("cache rename: %w", err)
	}
	return nil
}
