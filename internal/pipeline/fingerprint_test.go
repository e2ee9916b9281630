package pipeline

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/ifconvert"
	"repro/internal/program"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprint.golden")

// fingerprintConfigs are the configuration variants the fingerprint
// pins, each applied on top of config.Default().WithScheme(scheme).
var fingerprintConfigs = []struct {
	name string
	mut  func(*config.Config)
}{
	{"default", func(*config.Config) {}},
	{"splitpvt", func(c *config.Config) { c.SplitPVT = true }},
	{"noghrrepair", func(c *config.Config) { c.DisableGHRRepair = true }},
	{"select", func(c *config.Config) { c.Predication = config.PredicationSelect }},
	{"ideal", func(c *config.Config) { c.IdealNoAlias, c.IdealPerfectGHR = true, true }},
	{"smallwindow", func(c *config.Config) {
		// The machine of TestResourceConstrainedStillCorrect.
		c.ROBEntries = 16
		c.IntIQEntries, c.FPIQEntries, c.BrIQEntries = 8, 8, 4
		c.LoadQEntries, c.StoreQEntries = 4, 4
		c.IntPhysRegs, c.FPPhysRegs, c.PredPhysRegs = 140, 140, 72
		c.IntALUs, c.FPALUs, c.MemPorts, c.BrUnits = 1, 1, 1, 1
	}},
}

// TestStatsFingerprint pins the cycle model's exact observable output:
// the full Stats and the L1D/L2 miss counts of every scheme, binary and
// configuration variant on a few suite benchmarks, past the prologue.
// A change to the model's storage or scheduling code must leave every
// line byte-identical; a change to its timing or policy rewrites the
// golden with -update and says why.
func TestStatsFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const commits = 40000
	var buf bytes.Buffer
	for _, name := range []string{"gzip", "twolf", "swim"} {
		spec, err := bench.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		plain := bench.Build(spec)
		res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, 100000)))
		if err != nil {
			t.Fatal(err)
		}
		for _, bin := range []struct {
			name string
			prog *program.Program
		}{{"plain", plain}, {"ifconv", res.Prog}} {
			for _, s := range allSchemes() {
				for _, v := range fingerprintConfigs {
					cfg := config.Default().WithScheme(s)
					v.mut(&cfg)
					pl, err := New(cfg, bin.prog)
					if err != nil {
						t.Fatal(err)
					}
					if err := pl.Run(commits); err != nil {
						t.Fatalf("%s/%s/%v/%s: %v", name, bin.name, s, v.name, err)
					}
					h := pl.Hierarchy()
					sum := sha256.Sum256([]byte(fmt.Sprintf("%+v l1d=%+v l2=%+v", pl.Stats, h.L1D.Stats, h.L2.Stats)))
					fmt.Fprintf(&buf, "%s/%s/%v/%s cycles=%d l1d_misses=%d l2_misses=%d sha256=%x\n",
						name, bin.name, s, v.name, pl.Stats.Cycles, h.L1D.Stats.Misses, h.L2.Stats.Misses, sum[:12])
				}
			}
		}
	}
	path := filepath.Join("testdata", "fingerprint.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Fatalf("fingerprint has %d lines, golden %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Errorf("fingerprint mismatch:\n got  %s\n want %s", got[i], exp[i])
		}
	}
}
