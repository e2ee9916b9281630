// Package program provides the program container for the mini-ISA: a flat
// instruction sequence with symbolic labels, a builder for constructing
// programs, label resolution (assembly), validation, and a control-flow
// graph used by the if-conversion pass.
package program

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Program is an assembled (or in-progress) instruction sequence. PC values
// are instruction indices; the timing model maps them to byte addresses.
type Program struct {
	// Name is a display/diagnostic name; execution is fully
	// determined by Insts, so trace.HashProgram skips it.
	Name  string
	Insts []isa.Inst
	// Labels is the assembly-time symbol table (label -> instruction
	// index), folded into Inst.Target by Resolve before tracing, so
	// trace.HashProgram skips it.
	Labels map[string]int
}

// New returns an empty program with the given name.
func New(name string) *Program {
	return &Program{Name: name, Labels: make(map[string]int)}
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// At returns a pointer to the instruction at pc. It panics if pc is out
// of range; callers validate the PC stream.
func (p *Program) At(pc int) *isa.Inst { return &p.Insts[pc] }

// Append adds an instruction and returns its index.
func (p *Program) Append(in isa.Inst) int {
	p.Insts = append(p.Insts, in)
	return len(p.Insts) - 1
}

// Mark binds a label to the next instruction index.
func (p *Program) Mark(label string) {
	p.Labels[label] = len(p.Insts)
}

// Resolve fills Target fields from Label fields. It returns an error for
// undefined labels or targets out of range.
func (p *Program) Resolve() error {
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Label == "" {
			continue
		}
		t, ok := p.Labels[in.Label]
		if !ok {
			return fmt.Errorf("program %s: undefined label %q at @%d", p.Name, in.Label, i)
		}
		in.Target = t
		if in.Op == isa.OpMovI {
			// A label-address materialization (Builder.MovL): the label's
			// index is the architectural value, carried in Imm.
			in.Imm = int64(t)
		}
	}
	return p.Validate()
}

// Validate checks structural invariants: direct branch targets in range,
// register numbers in range, a Halt is reachable as the last instruction
// fallthrough guard.
func (p *Program) Validate() error {
	n := len(p.Insts)
	if n == 0 {
		return fmt.Errorf("program %s: empty", p.Name)
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsDirect() {
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("program %s: @%d %s: target %d out of range [0,%d)", p.Name, i, in, in.Target, n)
			}
		}
		if int(in.QP) >= isa.NumPred {
			return fmt.Errorf("program %s: @%d: qualifying predicate p%d out of range", p.Name, i, in.QP)
		}
		if in.IsCompare() {
			if int(in.P1) >= isa.NumPred || int(in.P2) >= isa.NumPred {
				return fmt.Errorf("program %s: @%d: predicate destination out of range", p.Name, i)
			}
			if in.P1 == in.P2 && in.P1 != isa.P0 {
				return fmt.Errorf("program %s: @%d: identical predicate destinations p%d", p.Name, i, in.P1)
			}
		}
		// The timing model requires halts, calls and returns to be
		// unguarded (IA-64 codegen conventions do the same).
		if (in.Op == isa.OpHalt || in.Op == isa.OpCall || in.Op == isa.OpRet) && in.QP != isa.P0 {
			return fmt.Errorf("program %s: @%d: %s must not be guarded", p.Name, i, in)
		}
	}
	last := &p.Insts[n-1]
	terminates := last.Op == isa.OpHalt ||
		(last.IsBranch() && last.Op != isa.OpCall && last.QP == isa.P0)
	if !terminates {
		return fmt.Errorf("program %s: last instruction %s can fall off the end", p.Name, last)
	}
	return nil
}

// Disassemble renders the whole program with labels and indices.
func (p *Program) Disassemble() string {
	labelAt := make(map[int][]string)
	for l, idx := range p.Labels {
		labelAt[idx] = append(labelAt[idx], l) //simlint:ignore detorder each bucket is sorted immediately below, washing out collection order
	}
	for _, ls := range labelAt {
		sort.Strings(ls)
	}
	var b strings.Builder
	for i := range p.Insts {
		for _, l := range labelAt[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %4d  %s\n", i, p.Insts[i].String())
	}
	return b.String()
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name, Insts: make([]isa.Inst, len(p.Insts)), Labels: make(map[string]int, len(p.Labels))}
	copy(q.Insts, p.Insts)
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	return q
}

// Stats summarizes a program's static mix.
type Stats struct {
	Total      int
	Branches   int
	CondBr     int
	Compares   int
	Predicated int // instructions guarded by a predicate other than p0
	Loads      int
	Stores     int
	FP         int
}

// Summarize computes static instruction-mix statistics.
func (p *Program) Summarize() Stats {
	var s Stats
	s.Total = len(p.Insts)
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsBranch() {
			s.Branches++
			if in.IsConditional() {
				s.CondBr++
			}
		}
		if in.IsCompare() {
			s.Compares++
		}
		if in.QP != isa.P0 && !in.IsBranch() {
			s.Predicated++
		}
		if in.IsLoad() {
			s.Loads++
		}
		if in.IsStore() {
			s.Stores++
		}
		if in.IsFP() {
			s.FP++
		}
	}
	return s
}
