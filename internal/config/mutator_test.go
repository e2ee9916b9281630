package config

import (
	"strings"
	"testing"
)

func TestSetAppliesKnobs(t *testing.T) {
	c := Default()
	// 2048 rows × (30+10+1) weights = 83968 bytes.
	if err := Set(&c, "pvt.entries", "2048"); err != nil {
		t.Fatal(err)
	}
	if want := 2048 * 41; c.L2PredBytes != want {
		t.Errorf("pvt.entries: L2PredBytes = %d, want %d", c.L2PredBytes, want)
	}
	if err := Set(&c, "conf.bits", "2"); err != nil {
		t.Fatal(err)
	}
	if c.ConfBits != 2 {
		t.Errorf("conf.bits: got %d", c.ConfBits)
	}
	if err := Set(&c, "predication", "selective"); err != nil {
		t.Fatal(err)
	}
	if c.Predication != PredicationSelective {
		t.Errorf("predication: got %v", c.Predication)
	}
	if err := Set(&c, "ghr.repair", "false"); err != nil {
		t.Fatal(err)
	}
	if !c.DisableGHRRepair {
		t.Error("ghr.repair=false should set DisableGHRRepair")
	}
	if err := Set(&c, "gshare.idxbits", "12"); err != nil {
		t.Fatal(err)
	}
	if c.GshareIdxBits != 12 {
		t.Errorf("gshare.idxbits: got %d", c.GshareIdxBits)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("mutated config should stay valid: %v", err)
	}
}

// TestPVTEntriesBudgetFollowsWidths pins where pvt.entries is bounded:
// Apply rejects only a row count whose byte budget overflows, and
// Validate applies the 8 MB bound to the budget at the point's own
// history widths. New dry-runs every axis value on the default widths,
// so a bound in Apply would reject 300000 rows, which fit once
// pred.ghrbits=5 narrows each row to 16 weights.
func TestPVTEntriesBudgetFollowsWidths(t *testing.T) {
	c := Default()
	if err := Set(&c, "pvt.entries", "300000"); err != nil {
		t.Fatal(err)
	}
	if c.Validate() == nil {
		t.Errorf("300000 rows × 41 weights = %d bytes must not validate", c.L2PredBytes)
	}
	c = Default()
	if err := Set(&c, "pred.ghrbits", "5"); err != nil {
		t.Fatal(err)
	}
	if err := Set(&c, "pvt.entries", "300000"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil || c.L2PredBytes != 300000*16 {
		t.Errorf("300000 rows × 16 weights: budget %d, Validate %v; want %d and valid", c.L2PredBytes, err, 300000*16)
	}
}

func TestSetErrors(t *testing.T) {
	c := Default()
	if err := Set(&c, "nosuch.knob", "1"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown knob should name the registered set, got %v", err)
	}
	for _, tc := range [][2]string{
		{"pvt.entries", "zero"},
		{"pvt.entries", "0"},
		{"pvt.entries", "1799682348654592000"}, // × 41 weights per row wraps to 65536 bytes
		{"conf.bits", "-1"},
		{"pvt.split", "maybe"},
		{"predication", "always"},
	} {
		before := c
		if err := Set(&c, tc[0], tc[1]); err == nil {
			t.Errorf("Set(%s, %s) should fail", tc[0], tc[1])
		}
		if c != before {
			t.Errorf("failed Set(%s, %s) must not partially write", tc[0], tc[1])
		}
	}
}

func TestMutatorRegistry(t *testing.T) {
	names := MutatorNames()
	if len(names) < 10 {
		t.Fatalf("expected the built-in knob set, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("MutatorNames not sorted: %v", names)
		}
	}
	for _, n := range names {
		m, ok := ResolveMutator(n)
		if !ok || m.Doc == "" {
			t.Errorf("knob %q should resolve with a doc line", n)
		}
	}
	for knob, deps := range knobReads {
		for _, n := range append([]string{knob}, deps...) {
			if _, ok := ResolveMutator(n); !ok {
				t.Errorf("knobReads names %q, which is not a knob", n)
			}
		}
	}
}
