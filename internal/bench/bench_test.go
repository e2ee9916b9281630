package bench

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/program"
)

func TestSuiteComposition(t *testing.T) {
	suite := Suite()
	if len(suite) != 22 {
		t.Fatalf("suite has %d benchmarks, want 22", len(suite))
	}
	ints, fps := 0, 0
	names := map[string]bool{}
	for _, s := range suite {
		if names[s.Name] {
			t.Errorf("duplicate benchmark %q", s.Name)
		}
		names[s.Name] = true
		switch s.Class {
		case "int":
			ints++
		case "fp":
			fps++
		default:
			t.Errorf("%s: bad class %q", s.Name, s.Class)
		}
	}
	if ints != 11 || fps != 11 {
		t.Errorf("int/fp split = %d/%d, want 11/11", ints, fps)
	}
}

// suiteDigests pins the SHA-256 of each built-in program's
// disassembly. A spec edit that changes no site allocation, such as
// zeroing a fraction that was truncated to no sites, must leave every
// program as it was.
var suiteDigests = map[string]string{
	"gzip":    "b51022c708a1e3edc1e375eecd6a08c6c236e82a6bbf0ff994a3c3032632e3ad",
	"vpr":     "df09e41cfa700ea7d30afcf2cc3b9f6c72c0b7dadefc7a545538526604da57fe",
	"gcc":     "7ad9864d4fc5b1f4a9e51807bba526d484a5cdfe2453aa7fb599637a324ca3cf",
	"mcf":     "9f6faa4515f6bc5e8e084a177cbd4f4325373b232f8167395f90b355ca317d8f",
	"crafty":  "85f5305b69c8e48ecd67466ae6d95ef097c8fac90dcdaf6018399b48853856cd",
	"parser":  "9c7bd39dbce10bf7ac994ed69d6ffb8633dfd0495dc8e0ac1193103cbb51e3dd",
	"perlbmk": "dd66575e03aa0ba5f9723e31da143d26ee9499f3ae00ab574313a763d2205cca",
	"gap":     "2cf8f1122c766aec5b2764f5e208ee1105ca103f6f902c41b3dbe31456b9db1b",
	"vortex":  "4dd17aea2feeba17ce0a126214d26bda373a40be0961fbb6dc8b872510f4608d",
	"bzip2":   "b9f90eadf6cc98883af7532f1600a4ef87065853708b2e31ed88aa03296146af",
	"twolf":   "eb88cc86d4050590b5063e274016d4091565e3ecaa04741723e6b2b074c55db7",
	"wupwise": "27ce3b791ea3402db62c079747f0a52bb6d41d960f8cf7749b460351e40d5245",
	"swim":    "c7c71d978aa933e056edd204a1317dad5ef872da1c397a1219f885debeae2d21",
	"mgrid":   "700314d997f7e66b0a7bb1c36f0b91cc23ebdc8c5a71e3b3e93f27da554010af",
	"applu":   "9ca57b38ce099e9e70ea4ebeb4fb79090170816a70f9a6e27f394cf3d230ae13",
	"mesa":    "765cb5e2c521b532d368bd071ce924abfa65cee7084fefafa2661ab06166fc48",
	"galgel":  "fb6d1c73e11a27406b418ff98ea6fc6244fb8d2d05cfe3f9a08ba3ce105cbe8e",
	"art":     "70e26c5ce8b02796a9f2d3761202143309302678cffb2426558c77b990ef5991",
	"equake":  "d15158686a8336873c96e12d8c66bae33d9aea936005316e459f85703b901908",
	"facerec": "1b47a9ff8c3c415031afa067126da802523fae913015ad3d588a6c9a80257cc9",
	"ammp":    "d7c11700f7ed289663260f766fd0c9219bcd02a9945646234fbeccdc44f6476c",
	"lucas":   "1375d8c902a9c9163c0cc2d942423c27e03a7f294498619c10d62d051c3ee56b",
}

// TestSuiteSaysWhatItGenerates checks that every built-in spec
// declares only families that get sites, so the suite passes the same
// allocation check as a user spec, and that each program matches its
// pinned digest.
func TestSuiteSaysWhatItGenerates(t *testing.T) {
	suite := Suite()
	if len(suite) != len(suiteDigests) {
		t.Fatalf("suite has %d benchmarks, %d pinned digests", len(suite), len(suiteDigests))
	}
	for _, s := range suite {
		if err := CheckSiteAllocation(s); err != nil {
			t.Error(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(Build(s).Disassemble())))
		if got != suiteDigests[s.Name] {
			t.Errorf("%s: program digest %s, want %s", s.Name, got, suiteDigests[s.Name])
		}
	}
}

func TestFind(t *testing.T) {
	s, err := Find("twolf")
	if err != nil || s.Name != "twolf" {
		t.Fatalf("Find(twolf) = %+v, %v", s, err)
	}
	if _, err := Find("nonesuch"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestBuildDeterministic(t *testing.T) {
	s, _ := Find("gcc")
	p1 := Build(s)
	p2 := Build(s)
	if p1.Len() != p2.Len() {
		t.Fatalf("nondeterministic build: %d vs %d", p1.Len(), p2.Len())
	}
	for i := range p1.Insts {
		if p1.Insts[i] != p2.Insts[i] {
			t.Fatalf("instruction %d differs: %s vs %s", i, p1.At(i), p2.At(i))
		}
	}
}

func TestAllBenchmarksValidAndRun(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := Build(s)
			if err := p.Validate(); err != nil {
				t.Fatalf("invalid program: %v", err)
			}
			em := emulator.New(p)
			n := em.Run(50000)
			if n < 50000 {
				t.Fatalf("program halted after %d steps; must run past the commit budget", n)
			}
			// A benchmark must actually exercise branches.
			st := p.Summarize()
			if st.CondBr < 5 {
				t.Errorf("only %d static conditional branches", st.CondBr)
			}
			if st.Compares < 5 {
				t.Errorf("only %d static compares", st.Compares)
			}
		})
	}
}

func TestAllBenchmarksIfConvertible(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := Build(s)
			prof := ifconvert.ProfileProgram(p, 150000)
			res, err := ifconvert.Convert(p, ifconvert.DefaultOptions(prof))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Converted) == 0 {
				t.Errorf("no regions converted (profile found %d branches)", len(prof))
			}
			// The converted binary must still be a valid infinite loop.
			em := emulator.New(res.Prog)
			if n := em.Run(20000); n < 20000 {
				t.Fatalf("converted program halted after %d steps", n)
			}
		})
	}
}

func TestConversionReducesBranches(t *testing.T) {
	s, _ := Find("vpr")
	p := Build(s)
	prof := ifconvert.ProfileProgram(p, 150000)
	res, err := ifconvert.Convert(p, ifconvert.DefaultOptions(prof))
	if err != nil {
		t.Fatal(err)
	}
	before := p.Summarize()
	after := res.Prog.Summarize()
	if after.CondBr >= before.CondBr {
		t.Errorf("cond branches %d -> %d, expected a reduction", before.CondBr, after.CondBr)
	}
	if after.Predicated <= before.Predicated {
		t.Errorf("predicated %d -> %d, expected an increase", before.Predicated, after.Predicated)
	}
}

func TestExitRegionsPresent(t *testing.T) {
	// At least one benchmark must exercise the Exit hammock form, which
	// creates region branches (Figure 1 of the paper).
	total := 0
	for _, s := range Suite() {
		p := Build(s)
		cfg := program.BuildCFG(p)
		for _, h := range cfg.FindHammocks(12) {
			if h.Kind == program.Exit {
				total++
			}
		}
	}
	if total == 0 {
		t.Error("no exit-pattern hammocks in the whole suite")
	}
}

func TestClassCharacter(t *testing.T) {
	// FP benchmarks should carry real FP work; integer ones mostly not.
	for _, s := range Suite() {
		p := Build(s)
		st := p.Summarize()
		if s.Class == "fp" && st.FP < 5 {
			t.Errorf("%s: fp benchmark with only %d fp instructions", s.Name, st.FP)
		}
	}
}
