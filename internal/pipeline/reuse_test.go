package pipeline

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/isa"
	"repro/internal/program"
)

// suiteBinaries builds a suite benchmark's plain binary and its
// if-converted one.
func suiteBinaries(t testing.TB, name string) (plain, ifconv *program.Program) {
	t.Helper()
	spec, err := bench.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	plain = bench.Build(spec)
	res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, 100000)))
	if err != nil {
		t.Fatal(err)
	}
	return plain, res.Prog
}

// TestReusedMachineMatchesFresh runs a sequence of cells on one machine,
// resetting it for each as a sim worker does, and checks every cell
// against a freshly built pipeline: the same Stats, cache and TLB
// counts, architectural registers and memory. The sequence changes
// scheme, binary, window size and program size from cell to cell, in
// both directions, so every buffer Reset keeps is reused both larger
// and smaller than the cell needs. The reused machine is co-simulated,
// so a stale value it read would also fail at its commit.
func TestReusedMachineMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const commits = 60000
	gzip, gzipIf := suiteBinaries(t, "gzip")
	mcf, _ := suiteBinaries(t, "mcf")
	_, vprIf := suiteBinaries(t, "vpr")
	small := buildHardLoop(1 << 40)
	with := func(s config.Scheme, mut func(*config.Config)) config.Config {
		c := config.Default().WithScheme(s)
		mut(&c)
		return c
	}
	same := func(*config.Config) {}
	cells := []struct {
		cfg  config.Config
		prog *program.Program
	}{
		{with(config.SchemePredicate, same), small},
		{with(config.SchemeConventional, same), gzip},
		{with(config.SchemePredicate, same), gzipIf},
		{with(config.SchemePEPPA, same), vprIf},
		{with(config.SchemeConventional, same), mcf},
		{with(config.SchemePredicate, func(c *config.Config) { c.ROBEntries = 512 }), mcf},
		{with(config.SchemePredicate, func(c *config.Config) { fingerprintConfigs[5].mut(c) }), gzipIf},
		{with(config.SchemeConventional, func(c *config.Config) { c.IdealNoAlias, c.IdealPerfectGHR = true, true }), vprIf},
		{with(config.SchemePredicate, func(c *config.Config) { c.IdealNoAlias, c.SplitPVT = true, true }), gzipIf},
		{with(config.SchemePEPPA, same), small},
		{with(config.SchemeConventional, func(c *config.Config) { c.RASEntries, c.L2PredBytes = 8, 32*1024 }), gzip},
		{with(config.SchemePredicate, same), gzipIf},
	}
	var m Pipeline
	for i, c := range cells {
		label := fmt.Sprintf("cell %d (%s, %v, ROB %d)", i, c.prog.Name, c.cfg.Scheme, c.cfg.ROBEntries)
		if err := m.Reset(c.cfg, c.prog); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		m.CoSim = emulator.New(c.prog)
		if err := m.Run(commits); err != nil {
			t.Fatalf("%s: reused machine: %v", label, err)
		}
		fresh, err := New(c.cfg, c.prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Run(commits); err != nil {
			t.Fatalf("%s: fresh machine: %v", label, err)
		}
		if err := sameMachine(&m, fresh); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// sameMachine reports the first observable difference between two
// pipelines: Stats, the caches' and TLBs' counts, the architectural
// registers, or memory.
func sameMachine(got, want *Pipeline) error {
	if got.Stats != want.Stats {
		return fmt.Errorf("Stats\n got  %+v\n want %+v", got.Stats, want.Stats)
	}
	g, w := got.Hierarchy(), want.Hierarchy()
	for _, l := range []struct {
		name      string
		got, want any
	}{
		{"L1I", g.L1I.Stats, w.L1I.Stats},
		{"L1D", g.L1D.Stats, w.L1D.Stats},
		{"L2", g.L2.Stats, w.L2.Stats},
		{"ITLB", [2]uint64{g.ITLB.Accesses, g.ITLB.Misses}, [2]uint64{w.ITLB.Accesses, w.ITLB.Misses}},
		{"DTLB", [2]uint64{g.DTLB.Accesses, g.DTLB.Misses}, [2]uint64{w.DTLB.Accesses, w.DTLB.Misses}},
	} {
		if l.got != l.want {
			return fmt.Errorf("%s counts %+v, want %+v", l.name, l.got, l.want)
		}
	}
	// The registers are read through the rename maps, in-flight
	// renames included; both machines stop in the same cycle with the
	// same window, so the values must agree bit for bit.
	for r := isa.Reg(0); r < isa.NumGPR; r++ {
		if a, b := got.ArchGPR(r), want.ArchGPR(r); a != b {
			return fmt.Errorf("r%d = %d, want %d", r, a, b)
		}
	}
	for r := isa.Reg(0); r < isa.NumFPR; r++ {
		if a, b := got.ArchFPR(r), want.ArchFPR(r); math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("f%d = %v, want %v", r, a, b)
		}
	}
	if !got.Memory().Equal(want.Memory()) {
		return fmt.Errorf("memory differs (%d pages, want %d)", got.Memory().Footprint(), want.Memory().Footprint())
	}
	return nil
}
