// Package ifconvert implements profile-guided if-conversion for the
// mini-ISA, following the methodology the paper inherits from Chang et
// al. [4]: profile the program to find hard-to-predict branches, then
// if-convert the hammock regions they guard, turning control
// dependencies into data dependencies on guarding predicates.
//
// The converter recognizes three region shapes (package program):
// if-then, if-then-else diamonds, and exit patterns. In the exit
// pattern, the region's trailing unconditional branch becomes a
// conditional region-branch — the paper's Figure 1 effect, where
// "the unconditional branch br.ret has been transformed to a
// conditional branch and it now needs to be predicted".
package ifconvert

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/emulator"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/program"
)

// BranchProfile is the profile of one static conditional branch.
type BranchProfile struct {
	PC          int
	Execs       uint64
	Taken       uint64
	Mispredicts uint64 // under the reference profiling predictor
}

// MispredictRate returns mispredicts/execs.
func (b BranchProfile) MispredictRate() float64 {
	if b.Execs == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Execs)
}

// Profile maps static branch instruction index to its profile.
type Profile map[int]*BranchProfile

// profileChunk is the emulator-step slice between context checks while
// profiling: the recorder's slice, for the same reason.
const profileChunk = 65536

// ProfileProgram runs the program functionally for up to maxSteps
// instructions, predicting every conditional branch with a per-branch
// bimodal reference predictor (the fast-converging "profile feedback"
// model of the paper's compiler flow), and records per-branch execution
// and misprediction counts.
func ProfileProgram(p *program.Program, maxSteps uint64) Profile {
	prof, _ := ProfileProgramContext(context.Background(), p, maxSteps)
	return prof
}

// ProfileProgramContext is ProfileProgram honoring ctx: it checks ctx
// before every slice of profileChunk steps and returns ctx's error, and
// no profile, once ctx is done.
func ProfileProgramContext(ctx context.Context, p *program.Program, maxSteps uint64) (Profile, error) {
	// Per static instruction: whether it is a conditional branch, its
	// counts and its bimodal counter. The map is built once at the end.
	cond := make([]bool, p.Len())
	for pc := range p.Insts {
		cond[pc] = p.Insts[pc].IsConditional()
	}
	counts := make([]BranchProfile, p.Len())
	bimodal := make([]predictor.SatCounter, p.Len())
	em := emulator.New(p)
	var info emulator.StepInfo
	for !em.Halted && em.Steps < maxSteps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for chunk := min(profileChunk, maxSteps-em.Steps); chunk > 0 && !em.Halted; chunk-- {
			pc := em.State.PC
			em.StepInto(&info)
			if uint(pc) >= uint(len(cond)) || !cond[pc] {
				continue
			}
			bp := &counts[pc]
			bp.Execs++
			if info.Taken {
				bp.Taken++
			}
			if bimodal[pc].Taken() != info.Taken {
				bp.Mispredicts++
			}
			bimodal[pc].Train(info.Taken)
		}
	}
	prof := make(Profile)
	for pc := range counts {
		if counts[pc].Execs > 0 {
			bp := counts[pc]
			bp.PC = pc
			prof[pc] = &bp
		}
	}
	return prof, nil
}

// Options controls region selection.
type Options struct {
	// MaxBlockLen bounds the number of instructions in a convertible
	// then/else block.
	MaxBlockLen int
	// MispredictThreshold selects branches whose profiled misprediction
	// rate is at least this value ("hard-to-predict"). Zero converts
	// every eligible hammock.
	MispredictThreshold float64
	// MinExecs requires a branch to have executed at least this often
	// in the profile to be considered.
	MinExecs uint64
	// Profile supplies the profile; nil means convert all eligible
	// hammocks regardless of predictability.
	Profile Profile
}

// DefaultOptions converts hammocks up to 12 instructions per block whose
// profiled misprediction rate is at least 5%.
func DefaultOptions(prof Profile) Options {
	return Options{MaxBlockLen: 12, MispredictThreshold: 0.05, MinExecs: 50, Profile: prof}
}

// Result describes what a conversion did.
type Result struct {
	Prog      *program.Program
	Converted []program.Hammock // hammocks that were if-converted
	Removed   int               // branches removed
	RegionBrs int               // unconditional branches made conditional
}

// Convert applies if-conversion and returns the transformed program.
// The input program is not modified.
func Convert(p *program.Program, opts Options) (*Result, error) {
	cfg := program.BuildCFG(p)
	hams := cfg.FindHammocks(opts.MaxBlockLen)

	// Select by profile and eligibility.
	var selected []program.Hammock
	for _, h := range hams {
		if !eligible(p, cfg, h) {
			continue
		}
		if opts.Profile != nil {
			bp := opts.Profile[h.Branch]
			if bp == nil || bp.Execs < opts.MinExecs || bp.MispredictRate() < opts.MispredictThreshold {
				continue
			}
		}
		selected = append(selected, h)
	}
	if len(selected) == 0 {
		return &Result{Prog: p.Clone()}, nil
	}

	// Conversion plan per instruction index.
	type action struct {
		drop   bool        // remove the instruction
		guard  isa.PredReg // re-guard with this predicate (if != P0)
		toNorm bool        // demote an unc compare to norm type when guarding
		isRgBr bool        // becomes a region branch (for stats)
	}
	plan := make(map[int]action)
	res := &Result{}
	for _, h := range selected {
		br := p.At(h.Branch)
		comp := findGuardCompare(p, cfg, h, br.QP)
		if comp < 0 {
			continue // no complementary predicate available
		}
		pTaken, pFall := complement(p.At(comp), br.QP)

		// Overlapping regions: first-come wins.
		overlap := plan[h.Branch].drop || plan[h.Branch].guard != isa.P0
		for _, bi := range regionBlocks(h) {
			b := cfg.Blocks[bi]
			for i := b.Start; i < b.End && !overlap; i++ {
				if a, ok := plan[i]; ok && (a.drop || a.guard != isa.P0) {
					overlap = true
				}
			}
		}
		if overlap {
			continue
		}

		plan[h.Branch] = action{drop: true}
		res.Removed++
		thenB := cfg.Blocks[h.Then]
		switch h.Kind {
		case program.IfThen:
			for i := thenB.Start; i < thenB.End; i++ {
				plan[i] = action{guard: pFall, toNorm: p.At(i).IsCompare()}
			}
		case program.Diamond:
			for i := thenB.Start; i < thenB.End-1; i++ {
				plan[i] = action{guard: pFall, toNorm: p.At(i).IsCompare()}
			}
			plan[thenB.End-1] = action{drop: true} // the br join
			elseB := cfg.Blocks[h.Else]
			for i := elseB.Start; i < elseB.End; i++ {
				plan[i] = action{guard: pTaken, toNorm: p.At(i).IsCompare()}
			}
		case program.Exit:
			for i := thenB.Start; i < thenB.End-1; i++ {
				plan[i] = action{guard: pFall, toNorm: p.At(i).IsCompare()}
			}
			// The unconditional exit branch becomes a region branch.
			plan[thenB.End-1] = action{guard: pFall, isRgBr: true}
			res.RegionBrs++
		}
		res.Converted = append(res.Converted, h)
	}

	// Rebuild the instruction stream, remapping targets and labels.
	out := program.New(p.Name + "+ifc")
	newIdx := make([]int, p.Len()+1)
	n := 0
	for i := 0; i < p.Len(); i++ {
		newIdx[i] = n
		if !plan[i].drop {
			n++
		}
	}
	newIdx[p.Len()] = n
	for i := 0; i < p.Len(); i++ {
		a := plan[i]
		if a.drop {
			continue
		}
		in := p.Insts[i]
		if a.guard != isa.P0 {
			if in.QP != isa.P0 {
				return nil, fmt.Errorf("ifconvert: nested guard at @%d (%s)", i, in.String())
			}
			in.QP = a.guard
			if a.toNorm && in.CType == isa.CmpUnc {
				in.CType = isa.CmpNorm
			}
		}
		if in.IsDirect() {
			in.Target = newIdx[in.Target]
			in.Label = ""
		}
		if in.Op == isa.OpMovI && in.Label != "" {
			// A materialized label address (Builder.MovL): the label's
			// index is the architectural value, so renumbering must
			// rewrite the immediate along with the bookkeeping target.
			in.Target = newIdx[in.Target]
			in.Imm = int64(in.Target)
		}
		out.Append(in)
	}
	for l, idx := range p.Labels {
		out.Labels[l] = newIdx[idx]
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("ifconvert: produced invalid program: %w", err)
	}
	res.Prog = out
	sort.Slice(res.Converted, func(i, j int) bool { return res.Converted[i].Branch < res.Converted[j].Branch })
	return res, nil
}

// eligible rejects hammocks the converter cannot handle safely:
// already-predicated instructions in the region, indirect branches, or
// region instructions that are themselves targets of outside branches.
func eligible(p *program.Program, cfg *program.CFG, h program.Hammock) bool {
	blocks := []int{h.Then}
	if h.Else >= 0 {
		blocks = append(blocks, h.Else)
	}
	guard := p.At(h.Branch).QP
	for _, bi := range blocks {
		b := cfg.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			in := p.At(i)
			if in.QP != isa.P0 {
				return false // nested predication unsupported
			}
			if in.Op == isa.OpCall || in.Op == isa.OpRet || in.Op == isa.OpBrInd {
				return false
			}
			// A compare redefining the region guard inside the region
			// would invalidate the guard for later instructions.
			if in.IsCompare() && (in.P1 == guard || in.P2 == guard) {
				return false
			}
		}
	}
	return true
}

// regionBlocks lists the block IDs whose instructions a hammock guards.
func regionBlocks(h program.Hammock) []int {
	if h.Else >= 0 {
		return []int{h.Then, h.Else}
	}
	return []int{h.Then}
}

// findGuardCompare scans the head block backwards for the compare that
// defines the branch's guarding predicate with a complementary second
// destination (unc or norm type), and verifies no later instruction in
// the head redefines either predicate. Returns the compare index or -1.
func findGuardCompare(p *program.Program, cfg *program.CFG, h program.Hammock, qp isa.PredReg) int {
	head := cfg.Blocks[h.Head]
	for i := h.Branch - 1; i >= head.Start; i-- {
		in := p.At(i)
		if !in.IsCompare() {
			continue
		}
		if (in.P1 == qp || in.P2 == qp) && (in.CType == isa.CmpUnc || in.CType == isa.CmpNorm) && in.QP == isa.P0 {
			other := in.P1
			if in.P1 == qp {
				other = in.P2
			}
			if other == isa.P0 {
				return -1 // complement discarded; cannot guard fallthrough
			}
			// Ensure neither predicate is redefined between compare and branch.
			for j := i + 1; j < h.Branch; j++ {
				jn := p.At(j)
				if jn.IsCompare() && (jn.P1 == qp || jn.P2 == qp || jn.P1 == other || jn.P2 == other) {
					return -1
				}
			}
			return i
		}
		if in.P1 == qp || in.P2 == qp {
			return -1 // guard defined by and/or-type compare: skip
		}
	}
	return -1
}

// complement returns (pTaken, pFall): the predicate true when the branch
// would have been taken (the branch guard) and its complement.
func complement(comp *isa.Inst, qp isa.PredReg) (pTaken, pFall isa.PredReg) {
	if comp.P1 == qp {
		return comp.P1, comp.P2
	}
	return comp.P2, comp.P1
}
