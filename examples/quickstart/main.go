// Quickstart: build a small predicated program with the builder API,
// run it functionally on the emulator, then run the same program on the
// out-of-order pipeline — driven through the public repro/sim façade —
// under the paper's predicate-prediction scheme and compare results.
package main

import (
	"context"
	"fmt"
	"log"

	//simlint:ignore layering pedagogical walkthrough of the ISA, program builder and emulator below the facade; rewriting it against sim would erase exactly what it teaches
	"repro/internal/emulator"
	//simlint:ignore layering pedagogical walkthrough of the ISA, program builder and emulator below the facade; rewriting it against sim would erase exactly what it teaches
	"repro/internal/isa"
	//simlint:ignore layering pedagogical walkthrough of the ISA, program builder and emulator below the facade; rewriting it against sim would erase exactly what it teaches
	"repro/internal/program"
	"repro/sim"
)

func main() {
	// abs-diff sum: for i in 0..99: d = a-b; if (a < b) d = b-a; sum += d
	// written in compare-and-branch style with a diamond, exactly the
	// kind of region if-conversion targets.
	b := program.NewBuilder("quickstart")
	b.MovI(1, 0). // i
			MovI(2, 100).  // n
			MovI(3, 0).    // sum
			MovI(7, 12345) // lcg
	b.Label("loop").
		// a, b from an LCG
		MulI(7, 7, 1103515245).AddI(7, 7, 12345).
		ShrI(4, 7, 16).AndI(4, 4, 0xff). // a
		ShrI(5, 7, 24).AndI(5, 5, 0xff). // b
		Cmp(isa.RelLT, isa.CmpUnc, 10, 11, 4, 5).
		G(10).Br("else").
		Sub(6, 4, 5). // then: d = a - b
		Br("join").
		Label("else").
		Sub(6, 5, 4). // else: d = b - a
		Label("join").
		Add(3, 3, 6).
		AddI(1, 1, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 12, 13, 1, 2).
		G(12).Br("loop").
		Halt()
	prog := b.Program()

	fmt.Println("program:")
	fmt.Print(prog.Disassemble())

	// Functional execution.
	em := emulator.New(prog)
	em.Run(0)
	fmt.Printf("\nemulator:  sum = %d in %d architectural steps\n", em.State.GPR[3], em.Steps)

	// Cycle-level execution under the predicate predictor scheme,
	// driven through the sim façade (Commits: 0 = run to halt).
	res, err := sim.SimulateProgram(context.Background(), sim.ProgramRun{
		Program: prog,
		Scheme:  "predpred",
	})
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats
	fmt.Printf("pipeline:  sum = %d in %d cycles (IPC %.2f)\n", res.GPR[3], st.Cycles, st.IPC())
	fmt.Printf("branches:  %d conditional, %d mispredicted (%.1f%%), %d early-resolved\n",
		st.CondBranches, st.BranchMispred, 100*st.MispredictRate(), st.EarlyResolved)
	if res.GPR[3] != em.State.GPR[3] {
		log.Fatal("pipeline and emulator disagree!")
	}
	fmt.Println("\npipeline matches the functional emulator — value-accurate execution.")
}
