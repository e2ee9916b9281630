package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/program"
)

// checkSchedule recomputes the scheduler's state by scanning the whole
// ROB, as issue and writeback did before dependency wakeup, and reports
// the first way the ready list, the in-flight list, the store FIFO, a
// pending count, a consumer link, the second-level GHR push count, the PPRF
// watermark or the ROB search disagrees with it.
func checkSchedule(pl *Pipeline) error {
	var ready, inflight, stores []int
	waiting := 0
	for i := pl.head; i < pl.mid; i++ {
		u := pl.slot(i)
		if u.isStore && !u.canceled {
			stores = append(stores, i)
		}
		switch {
		case u.issued && !u.done:
			inflight = append(inflight, i)
		case !u.issued && !u.done && u.class != classNone:
			missing := 0
			for _, p := range u.srcI[:u.nSrcI] {
				if !pl.physI[p].ready {
					missing++
				}
			}
			for _, p := range u.srcF[:u.nSrcF] {
				if !pl.physF[p].ready {
					missing++
				}
			}
			for _, p := range u.srcP[:u.nSrcP] {
				if !pl.pprf[p].computed {
					missing++
				}
			}
			if int(u.pending) != missing {
				return fmt.Errorf("seq %d: pending %d, %d sources not ready", u.seq, u.pending, missing)
			}
			if missing == 0 {
				ready = append(ready, i)
			}
			waiting += missing
		}
	}
	if err := sameList("ready", pl.readyList, ready); err != nil {
		return err
	}
	if err := sameList("in-flight", pl.inflight, inflight); err != nil {
		return err
	}
	if err := sameList("store", pl.stores[pl.storeHead:], stores); err != nil {
		return err
	}
	// The FIFO's head lies within it, and an empty FIFO restarts at
	// index 0, so it never needs more than the window's capacity.
	if pl.storeHead > len(pl.stores) || len(pl.stores) > cap(pl.stores) {
		return fmt.Errorf("store FIFO head %d, length %d, capacity %d", pl.storeHead, len(pl.stores), cap(pl.stores))
	}
	if pl.storeHead == len(pl.stores) && pl.storeHead != 0 {
		return fmt.Errorf("empty store FIFO left at head %d", pl.storeHead)
	}
	if err := checkWindowCounters(pl); err != nil {
		return err
	}

	// Every link names a source operand of a live, waiting uop that
	// reads the register whose stack holds it, and that register is
	// not ready; every not-ready source has exactly one link.
	seen := make([]bool, len(pl.linkNext))
	links := 0
	stacks := func(n int, top func(p int) int32) []int32 {
		s := make([]int32, n)
		for p := range s {
			s[p] = top(p)
		}
		return s
	}
	for _, c := range []struct {
		name   string
		stacks []int32
		first  int32
		ready  func(p int) bool
		srcs   func(u *uop) []int32
	}{
		{"int", stacks(len(pl.physI), func(p int) int32 { return pl.physI[p].wait }), 0, func(p int) bool { return pl.physI[p].ready }, func(u *uop) []int32 { return u.srcI[:u.nSrcI] }},
		{"fp", stacks(len(pl.physF), func(p int) int32 { return pl.physF[p].wait }), 3, func(p int) bool { return pl.physF[p].ready }, func(u *uop) []int32 { return u.srcF[:u.nSrcF] }},
		{"pred", stacks(len(pl.pprf), func(p int) int32 { return pl.pprf[p].wait }), 6, func(p int) bool { return pl.pprf[p].computed }, func(u *uop) []int32 { return u.srcP[:u.nSrcP] }},
	} {
		for p, top := range c.stacks {
			for l := top; l != noLink; l = pl.linkNext[l] {
				if seen[l] {
					return fmt.Errorf("%s p%d: link %d appears twice", c.name, p, l)
				}
				seen[l] = true
				links++
				if c.ready(p) {
					return fmt.Errorf("%s p%d is ready but still has link %d", c.name, p, l)
				}
				s, k := int(l/srcLinks), l%srcLinks-c.first
				pos := pl.head + (s-pl.head)&pl.mask
				u := &pl.win[s]
				if pos >= pl.mid || u.issued || u.done || u.class == classNone {
					return fmt.Errorf("%s p%d: link %d names slot %d (pos %d, rob [%d,%d)), not a waiting uop", c.name, p, l, s, pos, pl.head, pl.mid)
				}
				if srcs := c.srcs(u); k < 0 || int(k) >= len(srcs) || srcs[k] != int32(p) {
					return fmt.Errorf("%s p%d: link %d names source %d of seq %d, which reads %v", c.name, p, l, k, u.seq, srcs)
				}
			}
		}
	}
	if links != waiting {
		return fmt.Errorf("%d consumer links, %d sources not ready", links, waiting)
	}
	return nil
}

// checkWindowCounters holds the second-level GHR push count, the PPRF watermark
// and the ROB's binary search to the window scans they replace.
func checkWindowCounters(pl *Pipeline) error {
	// Each live pGHR push, youngest first, must find by its ordinal as
	// many younger pushes as a walk of the ROB and the front-end queue.
	var pushes int64
	switch {
	case pl.pred != nil:
		pushes = pl.pred.Pushes()
	case pl.conv != nil:
		pushes = pl.conv.Pushes()
	}
	younger := int64(0)
	for i := pl.tail - 1; i >= pl.head; i-- {
		u := pl.slot(i)
		if !u.brLkValid && !u.cmpLkValid {
			continue
		}
		if got := pushes - u.pushOrd - 1; got != younger {
			return fmt.Errorf("seq %d: push count puts its pGHR bit %d deep, the walk finds %d younger pushes", u.seq, got, younger)
		}
		younger++
	}
	for p, e := range pl.pprf {
		if e.robPtr > pl.ppWater {
			return fmt.Errorf("PPRF p%d points at seq %d, past the watermark %d", p, e.robPtr, pl.ppWater)
		}
	}
	// robFind must find every ROB entry by its seq, and nothing for a
	// seq no ROB entry holds: one squashed between two entries, one
	// before the head and one not yet fetched.
	for i := pl.head; i < pl.mid; i++ {
		u := pl.slot(i)
		if got := pl.robFind(u.seq); got != u {
			return fmt.Errorf("robFind(%d) misses the ROB entry at position %d", u.seq, i)
		}
		if i+1 < pl.mid && pl.slot(i+1).seq > u.seq+1 && pl.robFind(u.seq+1) != nil {
			return fmt.Errorf("robFind(%d) finds a uop in a squashed gap", u.seq+1)
		}
	}
	if pl.head < pl.mid && pl.robFind(pl.slot(pl.head).seq-1) != nil {
		return fmt.Errorf("robFind finds a uop older than the ROB head")
	}
	if pl.robFind(pl.seq+1) != nil {
		return fmt.Errorf("robFind finds a uop not yet fetched")
	}
	return nil
}

func sameList(name string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s list %v, scan finds %v", name, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s list %v, scan finds %v", name, got, want)
		}
	}
	return nil
}

// stepChecked runs the pipeline cycle by cycle, co-simulated, until it
// halts or commits n instructions, checking the scheduler after every
// cycle, and returns it.
func stepChecked(t *testing.T, label string, cfg config.Config, p *program.Program, n uint64) *Pipeline {
	t.Helper()
	pl, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	pl.CoSim = emulator.New(p)
	for !pl.halted && pl.Stats.Committed < n {
		if pl.cycle > 20*n {
			t.Fatalf("%s: only %d commits after %d cycles", label, pl.Stats.Committed, pl.cycle)
		}
		pl.step()
		if pl.CoSimErr != nil {
			t.Fatalf("%s, cycle %d: %v", label, pl.cycle, pl.CoSimErr)
		}
		if err := checkSchedule(pl); err != nil {
			t.Fatalf("%s, cycle %d: %v", label, pl.cycle, err)
		}
	}
	return pl
}

// TestSchedulingInvariants holds the ready list, the in-flight list,
// the store FIFO, the pending counts, the consumer stacks, the pGHR
// push count, the PPRF watermark and the ROB search to the window scans
// they replace, after every cycle and with co-simulation on, on random
// programs (plain and if-converted) and on mcf, whose ready lists are
// the longest in the suite.
func TestSchedulingInvariants(t *testing.T) {
	var variants []struct {
		name string
		mut  func(*config.Config)
	}
	for _, v := range fingerprintConfigs {
		if v.name == "default" || v.name == "smallwindow" {
			variants = append(variants, v)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		plain := randomProgram(rand.New(rand.NewSource(seed)))
		res, err := ifconvert.Convert(plain, ifconvert.Options{MaxBlockLen: 10})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, bin := range []struct {
			name string
			prog *program.Program
		}{{"plain", plain}, {"ifconv", res.Prog}} {
			for _, s := range allSchemes() {
				for _, v := range variants {
					cfg := config.Default().WithScheme(s)
					v.mut(&cfg)
					stepChecked(t, fmt.Sprintf("seed %d/%s/%v/%s", seed, bin.name, s, v.name), cfg, bin.prog, 1_000_000)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	spec, err := bench.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	plain := bench.Build(spec)
	res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, 100000)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allSchemes() {
		stepChecked(t, fmt.Sprintf("mcf/plain/%v", s), config.Default().WithScheme(s), plain, 40000)
		stepChecked(t, fmt.Sprintf("mcf/ifconv/%v", s), config.Default().WithScheme(s), res.Prog, 40000)
	}
}

// TestSchedulingVisitsPerCommit counts, per committed instruction, the
// uop slots writeback and issue visit: the full-ROB scan they used to
// make (mid-head at the stage's entry) against the in-flight and ready
// lists they walk now (each list's length at entry). Both walks stop at
// the same flush, so the entry sizes bound the visits alike. The ld
// columns do the same for memory disambiguation: for each load on the
// ready list at issue's entry, the ROB entries older than it (the scan
// loadMayIssue and forward used to make) against the store-list entries
// older than it. The counts are exact and do not depend on the host;
// EXPERIMENTS.md records them.
func TestSchedulingVisitsPerCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const commits = 120000
	t.Logf("%-6s %-23s %6s %9s %9s %9s %9s %9s %9s", "bench", "binary/scheme", "CPI", "wb scan", "wb list", "is scan", "is list", "ld scan", "ld list")
	for _, name := range []string{"gzip", "twolf", "swim", "mcf", "vpr", "art"} {
		spec, err := bench.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		plain := bench.Build(spec)
		res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, 100000)))
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			label  string
			scheme config.Scheme
			prog   *program.Program
		}{
			{"plain/conventional", config.SchemeConventional, plain},
			{"ifconv/predpred", config.SchemePredicate, res.Prog},
		} {
			cfg := config.Default().WithScheme(run.scheme)
			pl, err := New(cfg, run.prog)
			if err != nil {
				t.Fatal(err)
			}
			var wbScan, wbList, isScan, isList, ldScan, ldList int
			// The stages of step, in its order, with the counts taken
			// between them.
			for !pl.halted && pl.Stats.Committed < commits {
				pl.commit()
				if !pl.halted {
					wbScan += pl.mid - pl.head
					wbList += len(pl.inflight)
					pl.writeback()
					isScan += pl.mid - pl.head
					isList += len(pl.readyList)
					for _, pos := range pl.readyList {
						if !pl.slot(pos).isLoad {
							continue
						}
						ldScan += pos - pl.head
						for _, s := range pl.stores[pl.storeHead:] {
							if s >= pos {
								break
							}
							ldList++
						}
					}
					pl.issue()
					pl.rename()
					pl.fetch()
				}
				pl.cycle++
				pl.Stats.Cycles = pl.cycle
			}
			// The stage-by-stage loop must be step exactly.
			ref, err := New(cfg, run.prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(commits); err != nil {
				t.Fatal(err)
			}
			if pl.Stats != ref.Stats {
				t.Fatalf("%s/%s: stage loop drifted from step:\n got  %+v\n want %+v", name, run.label, pl.Stats, ref.Stats)
			}
			c := float64(pl.Stats.Committed)
			t.Logf("%-6s %-23s %6.3f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f", name, run.label, float64(pl.Stats.Cycles)/c,
				float64(wbScan)/c, float64(wbList)/c, float64(isScan)/c, float64(isList)/c,
				float64(ldScan)/c, float64(ldList)/c)
		}
	}
}
