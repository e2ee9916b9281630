package pipeline

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/isa"
	"repro/internal/program"
)

func TestBrIndViaTable(t *testing.T) {
	// Dispatch loop through an indirect branch with a stable target.
	b := program.NewBuilder("dispatch")
	b.MovI(1, 0).MovI(2, 300)
	b.Label("loop").
		MovI(5, 4). // address of label "work" (instruction index 4)
		BrInd(5).
		Label("work").
		AddI(1, 1, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 3, 4, 1, 2).
		G(3).Br("loop").
		Halt()
	p := b.Program()
	// Verify the hand-written index matches the label.
	if p.Labels["work"] != 4 {
		t.Fatalf("label drifted: work @%d", p.Labels["work"])
	}
	for _, s := range allSchemes() {
		pl := run(t, config.Default().WithScheme(s), p)
		if pl.ArchGPR(1) != 300 {
			t.Errorf("%v: r1 = %d", s, pl.ArchGPR(1))
		}
		// After warm-up the indirect target is predicted.
		if pl.Stats.TargetMispred > 10 {
			t.Errorf("%v: %d target mispredicts on a monomorphic brind", s, pl.Stats.TargetMispred)
		}
	}
}

func TestFPStoreLoadForwarding(t *testing.T) {
	b := program.NewBuilder("fpfwd")
	b.MovI(1, 0x7000).
		FMovI(2, 3.25).
		FStore(1, 0, 2).
		FLoad(3, 1, 0).
		FAdd(4, 3, 3).
		Halt()
	for _, s := range allSchemes() {
		pl := run(t, config.Default().WithScheme(s), b.Program())
		if got := pl.ArchFPR(4); got != 6.5 {
			t.Errorf("%v: f4 = %v, want 6.5", s, got)
		}
	}
}

func TestResourceConstrainedStillCorrect(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemePredicate)
	cfg.ROBEntries = 16
	cfg.IntIQEntries, cfg.FPIQEntries, cfg.BrIQEntries = 8, 8, 4
	cfg.LoadQEntries, cfg.StoreQEntries = 4, 4
	cfg.IntPhysRegs, cfg.FPPhysRegs, cfg.PredPhysRegs = 140, 140, 72
	cfg.IntALUs, cfg.FPALUs, cfg.MemPorts, cfg.BrUnits = 1, 1, 1, 1
	p := buildHardLoop(300)
	em := emulator.New(p)
	em.Run(0)
	pl := run(t, cfg, p)
	if pl.ArchGPR(5) != em.State.GPR[5] {
		t.Errorf("constrained machine diverged: %d vs %d", pl.ArchGPR(5), em.State.GPR[5])
	}
}

// TestSteadyStateAllocFree pins the window's recycling: once warm, the
// cycle model runs without a single heap allocation.
func TestSteadyStateAllocFree(t *testing.T) {
	plain := buildHardLoop(1 << 40)
	res, err := ifconvert.Convert(plain, ifconvert.Options{MaxBlockLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*program.Program{plain, res.Prog} {
		for _, s := range allSchemes() {
			pl, err := New(config.Default().WithScheme(s), p)
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Run(20000); err != nil {
				t.Fatal(err)
			}
			target := pl.Stats.Committed
			allocs := testing.AllocsPerRun(1, func() {
				target += 20000
				if err := pl.Run(target); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%v: %v allocations per 20k commits, want 0", p.Name, s, allocs)
			}
		}
	}
}

func TestIdealModesRun(t *testing.T) {
	p := buildHardLoop(400)
	for _, s := range []config.Scheme{config.SchemeConventional, config.SchemePredicate} {
		cfg := config.Default().WithScheme(s)
		cfg.IdealNoAlias = true
		cfg.IdealPerfectGHR = true
		pl := run(t, cfg, p)
		if pl.Stats.CondBranches == 0 {
			t.Errorf("%v ideal: no branches committed", s)
		}
	}
}

func TestSplitPVTRuns(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemePredicate)
	cfg.SplitPVT = true
	pl := run(t, cfg, buildHardLoop(400))
	if pl.Stats.PredPredictions == 0 {
		t.Error("split PVT made no predictions")
	}
}

func TestDisableGHRRepairRuns(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemePredicate)
	cfg.DisableGHRRepair = true
	pl := run(t, cfg, buildHardLoop(400))
	if pl.Stats.CondBranches == 0 {
		t.Error("no branches committed")
	}
}

func TestNewRejectsTinyROB(t *testing.T) {
	// A pathological config caught by Validate, not the watchdog.
	cfg := config.Default()
	cfg.ROBEntries = 4
	if _, err := New(cfg, buildHardLoop(10)); err == nil {
		t.Error("expected config validation error for tiny ROB")
	}
}

// TestWatchdogReportsDeadlock loses a wakeup on purpose: the register
// the first instruction reads never becomes ready, so nothing commits,
// and Run's no-commit detector must end the run with an error that
// reports how long it waited.
func TestWatchdogReportsDeadlock(t *testing.T) {
	b := program.NewBuilder("stuck")
	b.MovI(2, 5).Add(3, 1, 2).Halt()
	pl, err := New(config.Default(), b.Program())
	if err != nil {
		t.Fatal(err)
	}
	pl.physI[pl.ratI[1]].ready = false
	done := make(chan error, 1)
	go func() { done <- pl.Run(0) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "no commit for 200001 cycles") {
			t.Fatalf("Run = %v, want the no-commit error after 200001 cycles", err)
		}
		if pl.Stats.Committed != 1 {
			t.Errorf("committed %d instructions, want only the movi", pl.Stats.Committed)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run still going after a minute: the no-commit detector never fired")
	}
}

func TestBenchmarkCosim(t *testing.T) {
	// Co-simulate real suite benchmarks (both binaries, all schemes) —
	// the strongest end-to-end correctness check in the repository.
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, name := range []string{"gzip", "twolf", "swim"} {
		spec, err := bench.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		plain := bench.Build(spec)
		prof := ifconvert.ProfileProgram(plain, 100000)
		res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(prof))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*program.Program{plain, res.Prog} {
			for _, s := range allSchemes() {
				pl, err := New(config.Default().WithScheme(s), p)
				if err != nil {
					t.Fatal(err)
				}
				pl.CoSim = emulator.New(p)
				if err := pl.Run(25000); err != nil {
					t.Fatalf("%s/%s/%v: %v", name, p.Name, s, err)
				}
			}
		}
	}
}

func TestStatsStringsSane(t *testing.T) {
	pl := run(t, config.Default().WithScheme(config.SchemePredicate), buildHardLoop(200))
	st := pl.Stats
	if st.Fetched < st.Committed {
		t.Error("fetched fewer than committed")
	}
	if !st.HaltSeen {
		t.Error("halt not recorded")
	}
	if st.Cycles == 0 || st.IPC() <= 0 {
		t.Error("cycle accounting broken")
	}
}

func TestErrorMessagesNameTheScheme(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.Scheme(42)
	_, err := New(cfg, buildHardLoop(10))
	if err == nil || !strings.Contains(err.Error(), "scheme") {
		t.Errorf("unknown scheme error = %v", err)
	}
}
