package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Hash fingerprints every field of the (defaults-resolved) spec with
// FNV-1a: the spec_hash of a run's manifest line, so a record names the
// exact workload behind it, the optional behaviour knobs included. Two
// specs that build the same program (explicit default vs zero value)
// share a hash. The trace cache does not read it: it keys on
// trace.HashProgram of the built binary.
func (s Spec) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s.withDefaults())
	return h.Sum64()
}

// ErrSpec is wrapped by every error that rejects a spec: a file that
// is not .json, a malformed file, an unknown or repeated key, a field
// out of range, or a site family the budget truncates away. A file that cannot be read is a
// different failure, and Load reports it without ErrSpec.
var ErrSpec = errors.New("bench: invalid spec")

// Validation bounds. Fractions live in [0,1]; the structural knobs get
// generous but finite ranges so a typo (Sites: 3000000) is an error,
// not an out-of-memory build.
const (
	maxSites        = 256
	maxArrayKB      = 1 << 20
	maxPhasePeriod  = 1 << 20
	maxIndirTargets = 16
)

// Validate range checks every field of a spec and returns an error
// naming the offending field and its legal range. The zero values of
// PhasePeriod and IndirTargets are legal (they select the defaults);
// everything else must be explicit. A spec in range must also pass
// CheckSiteAllocation.
func Validate(s Spec) error {
	bad := func(field string, got any, legal string) error {
		return fmt.Errorf("%w %q: %s = %v out of range (legal: %s)", ErrSpec, s.Name, field, got, legal)
	}
	if s.Name == "" {
		return fmt.Errorf("%w: no name (legal: any non-empty string)", ErrSpec)
	}
	if s.Class != "int" && s.Class != "fp" {
		return bad("Class", strconv.Quote(s.Class), `"int" or "fp"`)
	}
	if s.Sites < 1 || s.Sites > maxSites {
		return bad("Sites", s.Sites, fmt.Sprintf("1..%d", maxSites))
	}
	fracs := []struct {
		name string
		v    float64
	}{
		{"HardFrac", s.HardFrac}, {"BiasFrac", s.BiasFrac}, {"CorrFrac", s.CorrFrac},
		{"PatFrac", s.PatFrac}, {"FPFrac", s.FPFrac}, {"MemFrac", s.MemFrac},
		{"PhaseFrac", s.PhaseFrac}, {"IndirFrac", s.IndirFrac}, {"HoistFrac", s.HoistFrac},
	}
	for _, f := range fracs {
		if f.v < 0 || f.v > 1 || f.v != f.v { // the last clause rejects NaN
			return bad(f.name, f.v, "0.0..1.0")
		}
	}
	if s.ArrayKB < 1 || s.ArrayKB > maxArrayKB || bits.OnesCount(uint(s.ArrayKB)) != 1 {
		return bad("ArrayKB", s.ArrayKB, fmt.Sprintf("a power of two in 1..%d", maxArrayKB))
	}
	if s.Iters < 1 {
		return bad("Iters", s.Iters, "1 or more")
	}
	if p := s.PhasePeriod; p != 0 && (p < 2 || p > maxPhasePeriod || bits.OnesCount64(uint64(p)) != 1) {
		return bad("PhasePeriod", p, fmt.Sprintf("0 (default %d) or a power of two in 2..%d", DefaultPhasePeriod, maxPhasePeriod))
	}
	if n := s.IndirTargets; n != 0 && (n < 2 || n > maxIndirTargets || bits.OnesCount(uint(n)) != 1) {
		return bad("IndirTargets", n, fmt.Sprintf("0 (default %d) or a power of two in 2..%d", DefaultIndirTargets, maxIndirTargets))
	}
	return CheckSiteAllocation(s)
}

// CheckSiteAllocation reports an error when a requested site family
// would be truncated to ZERO sites: fractions allocate whole sites in
// declaration order under a hard Sites cap (see allocSites), so an
// oversubscribed budget silently drops the last-listed families and
// the spec then measures a different workload than it describes.
// Validate ends with this check; a family truncated to fewer, but not
// zero, sites is legal.
func CheckSiteAllocation(s Spec) error {
	for _, f := range allocSites(s) {
		if f.frac > 0 && f.n == 0 {
			return fmt.Errorf("%w %q: %s = %v allocates no sites (fractions before it sum to the %d-site budget, or the fraction rounds below one site); lower earlier fractions, raise %s, or raise Sites",
				ErrSpec, s.Name, f.field, f.frac, s.Sites, f.field)
		}
	}
	return nil
}

// Load reads and validates one user-authored benchmark spec from a
// JSON file. A path with any other extension is rejected before it is
// read. Unknown keys are rejected with the list of legal ones, so a
// misspelled field fails loudly instead of silently keeping a default.
func Load(path string) (Spec, error) {
	if ext := filepath.Ext(path); !strings.EqualFold(ext, ".json") {
		return Spec{}, fmt.Errorf("%w %s: unsupported extension %q (spec files are .json)", ErrSpec, path, ext)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("bench: load spec: %w", err)
	}
	if k := repeatedKey(data); k != "" {
		return Spec{}, fmt.Errorf("%w %s: key %q set twice", ErrSpec, path, k)
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w %s: %w (legal keys: %s)", ErrSpec, path, err, strings.Join(specKeys, ", "))
	}
	// One spec per file: trailing content would be silently dropped by
	// a single Decode, which is how a second definition goes missing
	// without a word.
	if dec.More() {
		return Spec{}, fmt.Errorf("%w %s: trailing content after the spec object (one spec per file)", ErrSpec, path)
	}
	if err := Validate(s); err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// repeatedKey returns the first key the file's top-level object sets
// twice, matched case-insensitively as the decoder matches fields, or
// "" if none does. The decoder would keep the last value silently.
// Malformed input returns "" and is left to the decoder to report.
func repeatedKey(data []byte) string {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return ""
	}
	var seen []string
	for dec.More() {
		t, err := dec.Token()
		k, ok := t.(string)
		if err != nil || !ok {
			return ""
		}
		for _, prev := range seen {
			if strings.EqualFold(k, prev) {
				return k
			}
		}
		seen = append(seen, k)
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return ""
		}
	}
	return ""
}

// specKeys is the canonical key set of the on-disk spec format: the
// Spec fields' JSON tags.
var specKeys = []string{
	"name", "class", "seed", "sites",
	"hardFrac", "biasFrac", "corrFrac", "patFrac", "fpFrac", "memFrac",
	"phaseFrac", "indirFrac", "hoistFrac",
	"arrayKB", "iters", "phasePeriod", "indirTargets",
}
