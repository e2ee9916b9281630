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
	if c.GshareIdxBits != 12 || c.GshareGHRBits != 12 {
		t.Errorf("gshare.idxbits: got idx=%d ghr=%d", c.GshareIdxBits, c.GshareGHRBits)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("mutated config should stay valid: %v", err)
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
