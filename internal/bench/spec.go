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
// FNV-1a, for trace-cache keying: any spec change — including the
// optional behaviour knobs — changes the key, so user-authored
// workloads cache correctly alongside the built-in suite. Two specs
// that build the same program (explicit default vs zero value) share a
// hash.
func (s Spec) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s.withDefaults())
	return h.Sum64()
}

// ErrSpec is wrapped by every error that rejects a spec: a malformed
// file, an unknown or repeated key, a field out of range, or a site
// family the budget truncates away. A file that cannot be read is a
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
// JSON (.json) or TOML (.toml) file; any other extension is an error.
// Unknown keys are rejected with the list of legal ones, so a
// misspelled field fails loudly instead of silently keeping a default.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("bench: load spec: %w", err)
	}
	var s Spec
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".json":
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return Spec{}, fmt.Errorf("%w %s: %w (legal keys: %s)", ErrSpec, path, err, strings.Join(specKeys, ", "))
		}
		// One spec per file: trailing content would be silently dropped
		// by a single Decode, which is how a second definition goes
		// missing without a word.
		if dec.More() {
			return Spec{}, fmt.Errorf("%w %s: trailing content after the spec object (one spec per file)", ErrSpec, path)
		}
	case ".toml":
		if err := parseTOML(data, &s); err != nil {
			return Spec{}, fmt.Errorf("%w %s: %w", ErrSpec, path, err)
		}
	default:
		return Spec{}, fmt.Errorf("%w %s: unsupported extension %q (want .json or .toml)", ErrSpec, path, ext)
	}
	if err := Validate(s); err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// specKeys is the canonical key set of the on-disk spec format, shared
// by the JSON tags and the TOML parser.
var specKeys = []string{
	"name", "class", "seed", "sites",
	"hardFrac", "biasFrac", "corrFrac", "patFrac", "fpFrac", "memFrac",
	"phaseFrac", "indirFrac", "hoistFrac",
	"arrayKB", "iters", "phasePeriod", "indirTargets",
}

// parseTOML decodes the flat TOML subset the spec format needs — one
// `key = value` per line, # comments, bare integers/floats/booleans and
// double-quoted strings. No external dependency, no tables, no arrays:
// a Spec is flat by construction.
func parseTOML(data []byte, s *Spec) error {
	seen := map[string]int{} // key -> first line, to reject silent last-wins overwrites
	for ln, line := range strings.Split(string(data), "\n") {
		line = stripComment(line)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return fmt.Errorf(`line %d: %q is not "key = value"`, ln+1, line)
		}
		if first, dup := seen[key]; dup {
			return fmt.Errorf("line %d: key %q already set on line %d", ln+1, key, first)
		}
		seen[key] = ln + 1
		if err := setSpecField(s, key, val); err != nil {
			return fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	return nil
}

// stripComment cuts the line at its first # OUTSIDE double quotes, so
// a quoted value may contain # and still take a trailing comment.
func stripComment(line string) string {
	inQ := false
	for i, r := range line {
		switch r {
		case '"':
			inQ = !inQ
		case '#':
			if !inQ {
				return line[:i]
			}
		}
	}
	return line
}

// setSpecField assigns one parsed TOML value to its spec field, with
// the same key names as the JSON format.
func setSpecField(s *Spec, key, val string) error {
	str := func(dst *string) error {
		u, err := strconv.Unquote(val)
		if err != nil {
			return fmt.Errorf("key %q: value %s is not a quoted string", key, val)
		}
		*dst = u
		return nil
	}
	i64 := func(dst *int64) error {
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("key %q: value %s is not an integer", key, val)
		}
		*dst = v
		return nil
	}
	num := func(dst *int) error {
		var v int64
		if err := i64(&v); err != nil {
			return err
		}
		*dst = int(v)
		return nil
	}
	frac := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("key %q: value %s is not a number", key, val)
		}
		*dst = v
		return nil
	}
	switch key {
	case "name":
		return str(&s.Name)
	case "class":
		return str(&s.Class)
	case "seed":
		return i64(&s.Seed)
	case "sites":
		return num(&s.Sites)
	case "hardFrac":
		return frac(&s.HardFrac)
	case "biasFrac":
		return frac(&s.BiasFrac)
	case "corrFrac":
		return frac(&s.CorrFrac)
	case "patFrac":
		return frac(&s.PatFrac)
	case "fpFrac":
		return frac(&s.FPFrac)
	case "memFrac":
		return frac(&s.MemFrac)
	case "phaseFrac":
		return frac(&s.PhaseFrac)
	case "indirFrac":
		return frac(&s.IndirFrac)
	case "hoistFrac":
		return frac(&s.HoistFrac)
	case "arrayKB":
		return num(&s.ArrayKB)
	case "iters":
		return i64(&s.Iters)
	case "phasePeriod":
		return i64(&s.PhasePeriod)
	case "indirTargets":
		return num(&s.IndirTargets)
	default:
		return fmt.Errorf("unknown key %q (legal keys: %s)", key, strings.Join(specKeys, ", "))
	}
}
