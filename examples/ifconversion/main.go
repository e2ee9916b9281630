// If-conversion walkthrough: profile a benchmark to find its
// hard-to-predict branches, if-convert the hammock regions they guard,
// and show what the transformation does to the static code and to each
// predictor's accuracy — the experiment behind Figures 5 and 6 of the
// paper.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/sim"
)

func main() {
	plain, err := sim.BuildBenchmark("parser")
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: profile.
	prof := sim.ProfileProgram(plain, 200000)
	type hb struct {
		pc   int
		rate float64
		n    uint64
	}
	var hard []hb
	for pc, bp := range prof {
		hard = append(hard, hb{pc, bp.MispredictRate(), bp.Execs})
	}
	sort.Slice(hard, func(i, j int) bool {
		if hard[i].rate != hard[j].rate {
			return hard[i].rate > hard[j].rate
		}
		return hard[i].pc < hard[j].pc // map order must not reorder ties
	})
	fmt.Println("hardest branches by profile (bimodal reference predictor):")
	for _, h := range hard[:6] {
		fmt.Printf("  @%-4d %-28s mispredict %5.1f%%  (%d execs)\n",
			h.pc, plain.At(h.pc).String(), 100*h.rate, h.n)
	}

	// Step 2: if-convert the regions those branches guard.
	res, err := sim.IfConvert(plain, sim.DefaultIfConvertOptions(prof))
	if err != nil {
		log.Fatal(err)
	}
	before, after := plain.Summarize(), res.Prog.Summarize()
	fmt.Printf("\nif-converted %d regions:\n", len(res.Converted))
	for _, h := range res.Converted {
		fmt.Printf("  %-8s branch @%d\n", h.Kind, h.Branch)
	}
	fmt.Printf("static code: %d -> %d instructions, %d -> %d conditional branches, %d -> %d predicated\n",
		before.Total, after.Total, before.CondBr, after.CondBr, before.Predicated, after.Predicated)
	if res.RegionBrs > 0 {
		fmt.Printf("%d unconditional branches became conditional region branches (Figure 1 of the paper)\n", res.RegionBrs)
	}

	// Step 3: accuracy of each scheme on both binaries.
	fmt.Printf("\n%-14s %16s %16s\n", "scheme", "plain binary", "if-converted")
	for _, s := range []string{"conventional", "peppa", "predpred"} {
		a := run(s, plain)
		c := run(s, res.Prog)
		fmt.Printf("%-14v %15.2f%% %15.2f%%\n", s, a, c)
	}
	fmt.Println("\nif-conversion removes mispredicting branches for every scheme, but only the")
	fmt.Println("predicate predictor keeps the removed branches' correlation information and")
	fmt.Println("exploits early-resolved branches on the converted binary (§3.1).")
}

func run(scheme string, p *sim.Program) float64 {
	res, err := sim.SimulateProgram(context.Background(), sim.ProgramRun{
		Program: p,
		Scheme:  scheme,
		Commits: 120000,
	})
	if err != nil {
		log.Fatal(err)
	}
	return 100 * res.Stats.MispredictRate()
}
