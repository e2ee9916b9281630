// Early-resolved branches: demonstrates the paper's §3.1 mechanism —
// because predicted and computed predicate values share a physical
// register, a branch whose compare executed before the branch renames
// reads the COMPUTED value and is always predicted correctly.
//
// The demo builds the same random-branch loop twice: once with the
// compare immediately before the branch (never early), and once with
// the compare software-pipelined into the previous iteration (almost
// always early), and contrasts accuracy under the predicate scheme.
package main

import (
	"context"
	"fmt"
	"log"

	//simlint:ignore layering hand-builds a program at the ISA level to demonstrate early-resolved branches; needs the builder, not the facade
	"repro/internal/isa"
	//simlint:ignore layering hand-builds a program at the ISA level to demonstrate early-resolved branches; needs the builder, not the facade
	"repro/internal/program"
	"repro/sim"
)

// buildLoop returns a loop with an unpredictable branch. If hoisted,
// the branch's compare is executed at the end of the PREVIOUS
// iteration (distance = one loop body); otherwise it sits right next
// to its branch.
func buildLoop(hoisted bool) *program.Program {
	b := program.NewBuilder(map[bool]string{true: "hoisted", false: "adjacent"}[hoisted])
	b.MovI(8, 88172645463325252) // xorshift state
	b.MovI(1, 0).MovI(2, 30000)
	xorshift := func() {
		b.ShlI(9, 8, 13).Xor(8, 8, 9)
		b.ShrI(9, 8, 7).Xor(8, 8, 9)
		b.ShlI(9, 8, 17).Xor(8, 8, 9)
	}
	cond := func(p1, p2 isa.PredReg) {
		b.ShrI(10, 8, 23).AndI(10, 10, 1)
		b.CmpI(isa.RelNE, isa.CmpUnc, p1, p2, 10, 0)
	}
	if hoisted {
		xorshift()
		cond(4, 5) // pre-loop: predicates for iteration 0
	}
	b.Label("loop")
	if !hoisted {
		xorshift()
		cond(4, 5)
	}
	b.G(4).Br("skip").
		AddI(20, 20, 1).
		Label("skip")
	if hoisted {
		// Software-pipelined: compute the NEXT iteration's condition
		// right after consuming this one, maximizing the distance to
		// the consuming branch (one full loop body).
		xorshift()
		cond(4, 5)
	}
	// loop body filler
	for i := 0; i < 60; i++ {
		b.AddI(21, 21, 3)
	}
	b.AddI(1, 1, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 6, 7, 1, 2).
		G(6).Br("loop").
		Halt()
	return b.Program()
}

func main() {
	fmt.Println("A 50/50 random branch is unpredictable for ANY history-based predictor.")
	fmt.Println("But if its compare executes early enough, the predicate predictor reads")
	fmt.Println("the computed value from the PPRF instead of a prediction: 100% accurate.")
	fmt.Println()
	fmt.Printf("%-10s %12s %14s %16s %10s\n", "codegen", "mispredict", "early-resolved", "pred-flushes", "IPC")
	for _, hoisted := range []bool{false, true} {
		p := buildLoop(hoisted)
		res, err := sim.SimulateProgram(context.Background(), sim.ProgramRun{
			Program: p,
			Scheme:  "predpred",
		})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		fmt.Printf("%-10s %11.2f%% %13.1f%% %16d %10.2f\n",
			p.Name, 100*st.MispredictRate(),
			100*float64(st.EarlyResolved)/float64(st.CondBranches),
			st.PredFlushes, st.IPC())
	}
	fmt.Println()
	fmt.Println("Hoisting the compare across the loop back-edge turns every instance of the")
	fmt.Println("random branch into an early-resolved branch — the misprediction rate and the")
	fmt.Println("predicate-consumer flushes collapse, and IPC rises accordingly (§3.1, §4.2).")
}
