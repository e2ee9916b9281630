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

// buildMemLoop is a halting loop over the paths buildHardLoop never
// takes: store-to-load forwarding, a load that partially overlaps an
// older store, a nullified store, a store that waits for a
// floating-point chain with a select micro-op, an FP compare, a call
// and return, an indirect branch, a never-taken indirect branch whose
// predicted target lies off the program, and a load walk that misses
// every cache level and the DTLB, with more misses in flight than there
// are MSHRs and a full reorder buffer behind them.
func buildMemLoop(iters int64) *program.Program {
	const (
		stores = 1 << 20 // base of the 64-page store region
		walk   = 1 << 24 // base of the 8 MB load walk, never written
	)
	b := program.NewBuilder("mem")
	b.Br("start").
		Label("sub").FAdd(3, 3, 2).Ret(31)
	b.Label("start").
		MovI(1, 0).MovI(2, iters).MovI(3, 0).MovI(8, 99991).
		FMovI(1, 1.0).FMovI(2, 0.5).
		MovL(10, "skip").MovI(12, -1).
		CmpI(isa.RelEQ, isa.CmpUnc, 20, 21, 1, 1) // p20 stays false
	b.Label("loop").
		MulI(8, 8, 6364136223846793005).AddI(8, 8, 1442695040888963407).
		ShrI(9, 8, 33).AndI(9, 9, 1).
		CmpI(isa.RelNE, isa.CmpUnc, 1, 2, 9, 0).
		AndI(5, 1, 63).MulI(5, 5, 4160).AddI(5, 5, stores).
		Store(5, 0, 8).
		Load(6, 5, 0). // forwarded
		Load(7, 5, 4). // overlaps the store: waits for its commit
		G(20).Store(5, 16, 8).
		Load(11, 5, 16).
		AddI(3, 3, 4160).AndI(3, 3, 8<<20-1).OrI(4, 3, walk).
		Load(13, 4, 0).Load(14, 4, 64).Load(15, 4, 128).
		// r13 is 0, so this load waits out the miss above and misses too.
		Add(17, 4, 13).Load(16, 17, 192).
		// Nops hold reorder-buffer entries but no registers, so the
		// buffer fills before the free list empties.
		Nop().Nop().Nop().Nop().Nop().Nop().Nop().Nop().
		FCvtIF(4, 9).FAdd(4, 4, 1).FMul(4, 4, 2).
		G(1).FAdd(5, 5, 4).
		FStore(5, 40, 4). // unissued until the chain above completes
		FLoad(6, 5, 40).
		FCmp(isa.RelGT, isa.CmpUnc, 3, 4, 6, 1).
		Call(31, "sub").
		G(1).BrInd(10).
		Nop().
		Label("skip").
		G(20).BrInd(12).
		AddI(1, 1, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 22, 23, 1, 2).
		G(22).Br("loop").
		Halt()
	return b.Program()
}

// TestSteadyStateAllocFree pins the window's recycling: once warm, the
// cycle model runs without a single heap allocation. Each run measures
// the 20k commits that end at commit end, after 40k of warm-up; for
// buildMemLoop, end is its halt. Then one machine is reset for every
// run and scheme in turn, as a sim worker resets its machine per cell:
// after one pass has grown its storage, a second pass allocates
// nothing. Only allocations through the module's own code count
// (codeAllocs): a runtime goroutine that allocates during the measured
// call is not the cycle model's.
func TestSteadyStateAllocFree(t *testing.T) {
	hard := buildHardLoop(1 << 40)
	res, err := ifconvert.Convert(hard, ifconvert.Options{MaxBlockLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	mem := buildMemLoop(2000)
	em := emulator.New(mem)
	em.Run(0)
	runs := []struct {
		p   *program.Program
		end uint64
	}{{hard, 60000}, {res.Prog, 60000}, {mem, em.Steps}}
	for _, r := range runs {
		for _, s := range allSchemes() {
			pl, err := New(config.Default().WithScheme(s), r.p)
			if err != nil {
				t.Fatal(err)
			}
			target := r.end - 40000
			if err := pl.Run(target); err != nil {
				t.Fatal(err)
			}
			allocs, total := codeAllocs(func() { // a warm-up call, then the measured one
				target += 20000
				if err := pl.Run(target); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%v: %d allocations per 20k commits, want 0", r.p.Name, s, allocs)
			} else if total != 0 {
				t.Logf("%s/%v: %d process allocations during the measured commits, none through the cycle model", r.p.Name, s, total)
			}
			if r.p == mem && !pl.Halted() {
				t.Errorf("%s/%v: measured commits ended before the halt", r.p.Name, s)
			}
		}
	}

	// A worker's machine: once its storage has grown to the cells it
	// runs, a cell's Reset and Run allocate nothing.
	var m Pipeline
	allocs, total := codeAllocs(func() { // a warm-up pass over the cells, then the measured one
		for _, r := range runs {
			for _, s := range allSchemes() {
				if err := m.Reset(config.Default().WithScheme(s), r.p); err != nil {
					t.Fatal(err)
				}
				if err := m.Run(min(r.end, 20000)); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("a reused machine: %d allocations over %d cells, want 0", allocs, len(runs)*len(allSchemes()))
	} else if total != 0 {
		t.Logf("a reused machine: %d process allocations during the measured cells, none through the cycle model", total)
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
