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
