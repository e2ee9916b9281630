package config

import (
	"strings"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadValues(t *testing.T) {
	c := Default()
	c.FetchWidth = 0
	if c.Validate() == nil {
		t.Error("zero fetch width accepted")
	}

	c = Default()
	c.IntPhysRegs = 100 // fewer than architectural registers
	if c.Validate() == nil {
		t.Error("too few int physical registers accepted")
	}

	c = Default()
	c.FPPhysRegs = 64
	if c.Validate() == nil {
		t.Error("too few fp physical registers accepted")
	}

	c = Default()
	c.PredPhysRegs = 64
	if c.Validate() == nil {
		t.Error("too few predicate physical registers accepted")
	}

	c = Default()
	c.L1D.SizeBytes = 1000 // does not divide into sets*ways*blocks
	if c.Validate() == nil {
		t.Error("broken cache geometry accepted")
	}

	c = Default()
	c.L2.MSHRs = -1
	if c.Validate() == nil {
		t.Error("negative MSHR count accepted")
	}

	c = Default()
	c.DTLBSize = 0
	if c.Validate() == nil {
		t.Error("empty data TLB accepted")
	}

	c = Default()
	c.Scheme = Scheme(42)
	if c.Validate() == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestWithScheme(t *testing.T) {
	c := Default().WithScheme(SchemePredicate)
	if c.Scheme != SchemePredicate {
		t.Error("scheme not set")
	}
	if c.Predication != PredicationSelective {
		t.Error("predicate scheme must default to selective predication")
	}
	c = Default().WithScheme(SchemePEPPA)
	if c.Predication != PredicationSelect {
		t.Error("non-predicate schemes must keep select predication")
	}
}

func TestSchemeStrings(t *testing.T) {
	cases := map[Scheme]string{
		SchemeConventional: "conventional",
		SchemePredicate:    "predpred",
		SchemePEPPA:        "peppa",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if !strings.Contains(Scheme(99).String(), "99") {
		t.Error("unknown scheme should render its number")
	}
	if PredicationSelective.String() != "selective" || PredicationSelect.String() != "select" {
		t.Error("predication mode strings wrong")
	}
}

func TestCacheParamsSets(t *testing.T) {
	p := CacheParams{SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 64}
	if p.Sets() != 256 {
		t.Errorf("sets = %d, want 256", p.Sets())
	}
}

func TestTable1MentionsEverySubsystem(t *testing.T) {
	s := Default().Table1()
	for _, want := range []string{
		"Fetch Width", "Issue Queues", "Reorder Buffer", "L1D", "L1I",
		"L2 unified", "DTLB", "ITLB", "Main Memory",
		"Multilevel Branch Predictor", "Predicate Predictor",
		"Gshare 14-bit", "30-bit GHR", "10-bit LHR", "148 KB",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

// TestValidateBoundsPredictorKnobs drives each predictor-geometry knob
// through Apply one step past its bound, where Validate must reject it,
// and onto the bound itself, where Validate must accept it. Past the
// bound these values used to panic (pred.lhtbits=63), exhaust memory
// (gshare.idxbits=40) or silently act as a smaller value (conf.bits=9).
func TestValidateBoundsPredictorKnobs(t *testing.T) {
	for _, tc := range []struct {
		knob     string
		ok, over string
	}{
		{"gshare.idxbits", "20", "21"},
		{"gshare.idxbits", "20", "40"},
		{"pred.lhtbits", "20", "63"},
		{"pred.ghrbits", "63", ""}, // the knob parses at most 63
		{"pred.lhrbits", "63", ""},
		{"conf.bits", "8", "9"},
		{"conf.bits", "1", "63"},
		{"pred.bytes", "8388608", "8388609"},
		{"pvt.entries", "204600", "204601"}, // × 41 weights per row
	} {
		c := Default()
		if err := Set(&c, tc.knob, tc.ok); err != nil {
			t.Fatalf("%s=%s: %v", tc.knob, tc.ok, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s=%s is at its bound and must validate: %v", tc.knob, tc.ok, err)
		}
		if tc.over == "" {
			continue
		}
		c = Default()
		if err := Set(&c, tc.knob, tc.over); err != nil {
			t.Fatalf("%s=%s: %v", tc.knob, tc.over, err)
		}
		if err := c.Validate(); err == nil {
			t.Errorf("%s=%s is past its bound and must not validate", tc.knob, tc.over)
		}
	}
	// Fields the knobs cannot reach past their bound directly.
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"L2PredGHRBits=64", func(c *Config) { c.L2PredGHRBits = 64 }},
		{"L2PredLHRBits=64", func(c *Config) { c.L2PredLHRBits = 64 }},
		{"L2PredBytes=0", func(c *Config) { c.L2PredBytes = 0 }},
		{"ConfBits=0", func(c *Config) { c.ConfBits = 0 }},
		{"SplitPVT with one row", func(c *Config) { c.SplitPVT, c.L2PredBytes = true, 81 }},
	} {
		c := Default()
		tc.set(&c)
		if c.Validate() == nil {
			t.Errorf("%s must not validate", tc.name)
		}
	}
}
