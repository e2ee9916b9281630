package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/isa"
)

// customSpec is a valid baseline for mutation in the tests below.
func customSpec() Spec {
	return Spec{
		Name: "custom", Class: "int", Seed: 42,
		Sites: 12, HardFrac: 0.2, BiasFrac: 0.2, PatFrac: 0.1,
		MemFrac: 0.1, HoistFrac: 0.5, ArrayKB: 64, Iters: 1 << 40,
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(customSpec()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, s := range Suite() {
		if err := Validate(s); err != nil {
			t.Errorf("built-in %s rejected: %v", s.Name, err)
		}
	}
	cases := []struct {
		mutate   func(*Spec)
		wantSubs []string // every substring must appear in the error
	}{
		{func(s *Spec) { s.HardFrac = 1.5 }, []string{"HardFrac", "1.5", "0.0..1.0"}},
		{func(s *Spec) { s.PhaseFrac = -0.1 }, []string{"PhaseFrac", "0.0..1.0"}},
		{func(s *Spec) { s.Name = "" }, []string{"no name"}},
		{func(s *Spec) { s.Class = "vector" }, []string{"Class", `"int" or "fp"`}},
		{func(s *Spec) { s.Sites = 0 }, []string{"Sites", "1..256"}},
		{func(s *Spec) { s.Sites = 9999 }, []string{"Sites"}},
		{func(s *Spec) { s.ArrayKB = 48 }, []string{"ArrayKB", "power of two"}},
		{func(s *Spec) { s.Iters = 0 }, []string{"Iters"}},
		{func(s *Spec) { s.PhasePeriod = 300 }, []string{"PhasePeriod", "power of two"}},
		{func(s *Spec) { s.IndirTargets = 32 }, []string{"IndirTargets", "2..16"}},
		{func(s *Spec) { s.IndirTargets = 3 }, []string{"IndirTargets"}},
	}
	for _, c := range cases {
		s := customSpec()
		c.mutate(&s)
		err := Validate(s)
		if err == nil {
			t.Errorf("mutated spec %+v passed validation", s)
			continue
		}
		for _, sub := range c.wantSubs {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("error %q does not name %q", err, sub)
			}
		}
	}
}

func TestCheckSiteAllocation(t *testing.T) {
	if err := CheckSiteAllocation(customSpec()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Oversubscribed fractions: earlier families consume the whole
	// Sites budget, so the requested phase family would silently
	// allocate nothing.
	s := customSpec()
	s.PatFrac, s.MemFrac = 0, 0
	s.HardFrac, s.BiasFrac, s.PhaseFrac = 0.5, 0.5, 0.25
	err := CheckSiteAllocation(s)
	if err == nil || !strings.Contains(err.Error(), "PhaseFrac") || !strings.Contains(err.Error(), "allocates no sites") {
		t.Fatalf("oversubscription error = %v", err)
	}
	// A fraction too small to round to one site is the same silent
	// no-op in disguise.
	s = customSpec()
	s.IndirFrac = 0.01
	if err := CheckSiteAllocation(s); err == nil || !strings.Contains(err.Error(), "IndirFrac") {
		t.Fatalf("rounding-to-zero error = %v", err)
	}
}

func TestLoadEnforcesSiteAllocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "over.json")
	body := `{"name": "over", "class": "int", "sites": 8, "hardFrac": 0.6, "biasFrac": 0.6,
		"phaseFrac": 0.2, "hoistFrac": 0.5, "arrayKB": 64, "iters": 1000000}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "allocates no sites") {
		t.Fatalf("oversubscribed file error = %v", err)
	}
}

func TestFindErrorListsSuite(t *testing.T) {
	_, err := Find("nonesuch")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, name := range []string{"gzip", "twolf", "wupwise"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("Find error %q does not list suite member %q", err, name)
		}
	}
	// The listing must be in stable sorted order.
	msg := err.Error()
	if strings.Index(msg, "ammp") > strings.Index(msg, "gzip") ||
		strings.Index(msg, "gzip") > strings.Index(msg, "twolf") {
		t.Errorf("suite listing not sorted: %q", msg)
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestLoadJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	good := `{
		"name": "jdemo", "class": "int", "seed": 7, "sites": 10,
		"hardFrac": 0.3, "hoistFrac": 0.4, "phaseFrac": 0.2,
		"phasePeriod": 128, "arrayKB": 32, "iters": 1000000
	}`
	if err := os.WriteFile(path, []byte(good), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Name != "jdemo" || s.PhaseFrac != 0.2 || s.PhasePeriod != 128 {
		t.Fatalf("loaded spec %+v", s)
	}

	// An out-of-range field must fail naming the field and range.
	bad := strings.Replace(good, `"hardFrac": 0.3`, `"hardFrac": 1.5`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil ||
		!strings.Contains(err.Error(), "HardFrac") || !strings.Contains(err.Error(), "0.0..1.0") {
		t.Fatalf("invalid spec error = %v, want HardFrac range error", err)
	}

	// An unknown key must fail, not silently default.
	unknown := strings.Replace(good, `"hardFrac"`, `"hardFracc"`, 1)
	if err := os.WriteFile(path, []byte(unknown), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "legal keys") {
		t.Fatalf("unknown key error = %v", err)
	}

	// Trailing content (a second concatenated spec) must fail, not be
	// silently dropped.
	if err := os.WriteFile(path, []byte(good+good), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "trailing content") {
		t.Fatalf("trailing content error = %v", err)
	}
}

func TestLoadTOML(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.toml")
	good := `
# phase-heavy demo workload
name = "tdemo"   # the benchmark name
class = "fp"
seed = 9
sites = 8
fpFrac = 0.25
phaseFrac = 0.5
indirFrac = 0.25
indirTargets = 8
hoistFrac = 0.6
arrayKB = 16
iters = 500000
`
	if err := os.WriteFile(path, []byte(good), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Name != "tdemo" || s.Class != "fp" || s.IndirTargets != 8 || s.PhaseFrac != 0.5 {
		t.Fatalf("loaded spec %+v", s)
	}

	// A quoted value containing # may still take a trailing comment.
	hashName := strings.Replace(good, `name = "tdemo"   # the benchmark name`,
		`name = "t#demo" # trailing comment`, 1)
	if err := os.WriteFile(path, []byte(hashName), 0o600); err != nil {
		t.Fatal(err)
	}
	if s, err := Load(path); err != nil || s.Name != "t#demo" {
		t.Fatalf("quoted-# spec = %+v, %v", s, err)
	}
	if _, err := Load(filepath.Join(dir, "missing.toml")); err == nil {
		t.Fatal("expected error for a missing file")
	}

	badKey := good + "warpFrac = 0.5\n"
	if err := os.WriteFile(path, []byte(badKey), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "warpFrac") {
		t.Fatalf("unknown TOML key error = %v", err)
	}

	// A duplicated key must fail naming both lines, not last-wins.
	dupKey := good + "seed = 11\n"
	if err := os.WriteFile(path, []byte(dupKey), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "already set") {
		t.Fatalf("duplicate TOML key error = %v", err)
	}

	other := filepath.Join(dir, "spec.yaml")
	if err := os.WriteFile(other, []byte("name: x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(other); err == nil || !strings.Contains(err.Error(), ".json or .toml") {
		t.Fatalf("unsupported extension error = %v", err)
	}
}

func TestSpecHash(t *testing.T) {
	a := customSpec()
	b := a
	if a.Hash() != b.Hash() {
		t.Fatal("identical specs hash differently")
	}
	b.PhaseFrac = 0.3
	if a.Hash() == b.Hash() {
		t.Fatal("PhaseFrac change did not change the hash")
	}
	// The zero value and the explicit default build the same program
	// and must share a cache key.
	c := a
	c.PhasePeriod = DefaultPhasePeriod
	c.IndirTargets = DefaultIndirTargets
	if a.Hash() != c.Hash() {
		t.Fatal("explicit defaults hash differently from zero values")
	}
}

// TestSpecHashSeesEveryField proves the manifests' spec_hash from the
// code: every field of Spec is moved in turn to a value that is neither
// zero nor its withDefaults default (either of which could build the
// same program as the base), and the hash must move. A field added to
// Spec fails here until Hash covers it.
func TestSpecHashSeesEveryField(t *testing.T) {
	base := customSpec()
	hash := base.Hash()
	defaults := reflect.ValueOf(Spec{}.withDefaults())
	st := reflect.TypeOf(base)
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		s := base
		f := reflect.ValueOf(&s).Elem().Field(i)
		for {
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.125)
			case reflect.String:
				f.SetString(f.String() + "x")
			default:
				t.Fatalf("%s: no mutation for kind %s; teach the test one", name, f.Kind())
			}
			if !f.IsZero() && !f.Equal(defaults.Field(i)) {
				break
			}
		}
		if s.Hash() == hash {
			t.Errorf("setting %s to %v did not move Spec.Hash", name, f)
		}
	}
}

// phaseSpec builds a workload that is nothing but phase-switching
// sites, so every mid-bias conditional branch is a phase branch.
func phaseSpec(period int64) Spec {
	s := customSpec()
	s.Name = "phase"
	s.HardFrac, s.BiasFrac, s.PatFrac, s.MemFrac = 0, 0, 0, 0
	s.HoistFrac = 0
	s.PhaseFrac = 1
	s.PhasePeriod = period
	return s
}

func TestPhaseBranchBiasFlips(t *testing.T) {
	const period = 64
	s := phaseSpec(period)
	p := Build(s)
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	// Record per-PC conditional-branch outcomes through the emulator.
	outcomes := map[int][]bool{}
	em := emulator.New(p)
	for range 300000 {
		info := em.Step()
		if info.IsBranch && p.At(info.PC).Op == isa.OpBr && p.At(info.PC).IsConditional() {
			outcomes[info.PC] = append(outcomes[info.PC], info.Taken)
		}
	}

	// A phase branch executes once per outer iteration, so outcome i
	// belongs to iteration i and regimes are contiguous period-length
	// chunks. The bias must swing high and low across regimes.
	checked := 0
	for pc, seq := range outcomes {
		if len(seq) < 4*period {
			continue
		}
		overall := takenRate(seq)
		if overall > 0.9 { // the outer loop branch; phase sites sit near 50%
			continue
		}
		var hi, lo bool
		for start := 0; start+period <= len(seq); start += period {
			r := takenRate(seq[start : start+period])
			if r > 0.7 {
				hi = true
			}
			if r < 0.3 {
				lo = true
			}
		}
		if !hi || !lo {
			t.Errorf("branch @%d: bias never flipped (overall rate %.2f)", pc, overall)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no phase branches observed")
	}
}

func takenRate(seq []bool) float64 {
	n := 0
	for _, b := range seq {
		if b {
			n++
		}
	}
	return float64(n) / float64(len(seq))
}

func TestIndirectDispatchPolymorphic(t *testing.T) {
	s := customSpec()
	s.Name = "indir"
	s.HardFrac, s.BiasFrac, s.PatFrac, s.MemFrac = 0, 0, 0, 0
	s.IndirFrac = 0.5
	s.IndirTargets = 4
	p := Build(s)
	static := 0
	for i := range p.Insts {
		if p.Insts[i].Op == isa.OpBrInd {
			static++
		}
	}
	if static == 0 {
		t.Fatal("IndirFrac produced no indirect branches")
	}
	targets := map[int]map[int]bool{}
	em := emulator.New(p)
	for range 100000 {
		info := em.Step()
		if info.Halted {
			t.Fatalf("indirect workload halted after %d steps", em.Steps)
		}
		if p.At(info.PC).Op == isa.OpBrInd {
			if targets[info.PC] == nil {
				targets[info.PC] = map[int]bool{}
			}
			targets[info.PC][info.Target] = true
		}
	}
	for pc, ts := range targets {
		if len(ts) < 2 || len(ts) > s.IndirTargets {
			t.Errorf("brind @%d reached %d targets, want 2..%d", pc, len(ts), s.IndirTargets)
		}
	}
}

func TestNewFamiliesIfConvertible(t *testing.T) {
	// A custom workload mixing both new families must survive the
	// profile → convert → run path like every built-in benchmark;
	// renumbering must keep materialized jump-table addresses valid.
	s := customSpec()
	s.Name = "mixed"
	s.PhaseFrac, s.IndirFrac = 0.3, 0.2
	p := Build(s)
	prof := ifconvert.ProfileProgram(p, 100000)
	res, err := ifconvert.Convert(p, ifconvert.DefaultOptions(prof))
	if err != nil {
		t.Fatal(err)
	}
	em := emulator.New(res.Prog)
	if n := em.Run(50000); n < 50000 {
		t.Fatalf("converted program halted after %d steps", n)
	}
}

// FuzzLoad feeds arbitrary bytes to Load as a .json file and as a
// .toml file. Each call must return a spec that passes Validate and
// CheckSiteAllocation, or an error with the zero Spec; it must never
// panic. The seeds in testdata/fuzz/FuzzLoad are the committed
// example and benchmark specs.
// TestLoadErrorsWrapErrSpec pins Load's error types: a rejected spec
// wraps ErrSpec, and a file that cannot be read does not.
func TestLoadErrorsWrapErrSpec(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"bad.json":   `{"Name": "x", "Class": "int"`,
		"range.json": `{"Name": "x", "Class": "vector"}`,
		"keys.toml":  "Name = \"x\"\nwarp = 1\n",
		"spec.yaml":  "Name: x\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: got %v, want an error wrapping ErrSpec", name, err)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil || errors.Is(err, ErrSpec) {
		t.Errorf("unreadable file: got %v, want a read error without ErrSpec", err)
	}
}

func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, ext := range []string{".json", ".toml"} {
			path := filepath.Join(dir, "spec"+ext)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Load(path)
			if err != nil {
				if s != (Spec{}) {
					t.Errorf("%s: error %v returned with a non-zero spec %+v", ext, err, s)
				}
				if !errors.Is(fmt.Errorf("workload: %w", err), ErrSpec) {
					t.Errorf("%s: rejection %v does not wrap ErrSpec", ext, err)
				}
				continue
			}
			if err := Validate(s); err != nil {
				t.Errorf("%s: loaded spec fails Validate: %v", ext, err)
			}
			if err := CheckSiteAllocation(s); err != nil {
				t.Errorf("%s: loaded spec fails CheckSiteAllocation: %v", ext, err)
			}
		}
	})
}
