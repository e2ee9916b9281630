// Package emulator implements a functional (architectural) emulator for
// the mini-ISA. It maintains correct machine state and is used three
// ways: as the correctness oracle for co-simulation tests against the
// out-of-order pipeline, as the profiling engine for profile-guided
// if-conversion, and as the reference for the idealized predictor
// experiments.
package emulator

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/program"
)

const pageBits = 12
const pageSize = 1 << pageBits

type page [pageSize]byte

// Memory is a sparse, paged, little-endian 64-bit byte-addressable
// memory. Uninitialized locations read as zero. A direct-mapped cache
// of pageCacheSize pages, indexed by the low bits of the page number,
// sits in front of the page map, so accesses that cycle over a few
// pages cost no map lookup; a read therefore updates the cache, and a
// Memory must not be shared between goroutines.
type Memory struct {
	pages map[uint64]*page
	cache [pageCacheSize]cachedPage
	// owned lists every page the memory has allocated, the first used
	// of them in the page map; after a Reset, a new page is the next
	// owned one, zeroed, before it is a new allocation.
	owned []*page
	used  int
}

// pageCacheSize is the page cache's entry count, a power of two.
const pageCacheSize = 64

// cachedPage is a page cache entry: page p, whose number is pn, or
// p == nil while the entry is empty.
type cachedPage struct {
	pn uint64
	p  *page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	m := new(Memory)
	m.Reset()
	return m
}

// Reset empties m, keeping its pages for reuse, so refilling them costs
// no allocation.
func (m *Memory) Reset() {
	if m.pages == nil {
		m.pages = make(map[uint64]*page)
	}
	clear(m.pages)
	m.used = 0
	m.cache = [pageCacheSize]cachedPage{}
}

// pageFor returns the page holding addr, allocating it when create is
// set; without create an untouched page is nil, and is not cached.
func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr >> pageBits
	c := &m.cache[pn&(pageCacheSize-1)]
	if c.p != nil && c.pn == pn {
		return c.p
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		if m.used < len(m.owned) {
			p = m.owned[m.used]
			*p = page{}
		} else {
			p = new(page)
			m.owned = append(m.owned, p)
		}
		m.used++
		m.pages[pn] = p
	}
	c.pn, c.p = pn, p
	return p
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint64) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint64, v byte) {
	p := m.pageFor(addr, true)
	p[addr&(pageSize-1)] = v
}

// Read64 reads a little-endian 64-bit word (no alignment requirement).
func (m *Memory) Read64(addr uint64) uint64 {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(m.Read8(addr+uint64(i)))
	}
	return v
}

// Write64 writes a little-endian 64-bit word.
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.pageFor(addr, true)[off:], v)
		return
	}
	for i := 0; i < 8; i++ {
		m.Write8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// Equal reports whether m and o hold the same contents: the same
// touched pages, each with the same bytes.
func (m *Memory) Equal(o *Memory) bool {
	if len(m.pages) != len(o.pages) {
		return false
	}
	for pn, p := range m.pages {
		if q := o.pages[pn]; q == nil || *p != *q {
			return false
		}
	}
	return true
}

// Footprint returns the number of touched pages (debug/stats aid).
func (m *Memory) Footprint() int { return len(m.pages) }

// State is the complete architectural state.
type State struct {
	GPR  [isa.NumGPR]int64
	FPR  [isa.NumFPR]float64
	Pred [isa.NumPred]bool
	PC   int
	Mem  *Memory
}

// NewState returns a reset state (P0 true, everything else zero).
func NewState() *State {
	s := &State{Mem: NewMemory()}
	s.Pred[isa.P0] = true
	return s
}

// ReadPred reads a predicate register (P0 always reads true).
func (s *State) ReadPred(p isa.PredReg) bool {
	if p == isa.P0 {
		return true
	}
	return s.Pred[p]
}

// WritePred writes a predicate register; writes to P0 are discarded.
func (s *State) WritePred(p isa.PredReg, v bool) {
	if p != isa.P0 {
		s.Pred[p] = v
	}
}

// ReadGPR reads an integer register (R0 always reads zero).
func (s *State) ReadGPR(r isa.Reg) int64 {
	if r == isa.R0 {
		return 0
	}
	return s.GPR[r]
}

// WriteGPR writes an integer register; writes to R0 are discarded.
func (s *State) WriteGPR(r isa.Reg, v int64) {
	if r != isa.R0 {
		s.GPR[r] = v
	}
}

// StepInfo describes the architectural effects of one executed
// instruction; the pipeline and profilers consume it.
type StepInfo struct {
	PC       int
	Op       isa.Op
	QPTrue   bool // qualifying predicate evaluated true
	IsBranch bool
	Taken    bool // branch direction (false if nullified)
	Target   int  // next PC if taken
	IsCmp    bool
	Cond     bool // compare condition (valid when QPTrue for unc/norm)
	Out      isa.PredicateOutcome
	Halted   bool
	MemAddr  uint64 // effective address for memory ops
	IsMem    bool
}

// Emulator executes a program against a State.
type Emulator struct {
	Prog  *program.Program
	State *State
	// Steps counts executed (committed) instructions including nullified.
	Steps uint64
	// Halted is latched once OpHalt commits or the PC leaves the
	// program.
	Halted bool
}

// New returns an emulator at PC 0 with fresh state.
func New(p *program.Program) *Emulator {
	return &Emulator{Prog: p, State: NewState()}
}

// Step executes one instruction and advances PC. It returns the step
// record. Calling Step after halt returns a Halted record.
func (e *Emulator) Step() StepInfo {
	var info StepInfo
	e.StepInto(&info)
	return info
}

// StepInto is Step writing the step record into *info, which it
// overwrites whole; it is the one stepping primitive, so a caller that
// steps in a loop reuses one record. Once halted, or when the PC has
// left the program (which latches Halted), it executes nothing, counts
// no step and writes a record holding only PC and Halted.
func (e *Emulator) StepInto(info *StepInfo) {
	s := e.State
	pc := s.PC
	if e.Halted || pc < 0 || pc >= len(e.Prog.Insts) {
		e.Halted = true
		*info = StepInfo{PC: pc, Halted: true}
		return
	}
	in := &e.Prog.Insts[pc]
	qp := s.ReadPred(in.QP)
	*info = StepInfo{PC: pc, Op: in.Op, QPTrue: qp}
	nextPC := pc + 1

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		if qp {
			e.Halted = true
			info.Halted = true
		}
	// One case per integer ALU opcode, so a step pays a single
	// dispatch; intALU, the pipeline's evaluator, shares div, shl and
	// shr with these cases.
	case isa.OpAdd:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)+s.ReadGPR(in.Rs2))
		}
	case isa.OpAddI:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)+in.Imm)
		}
	case isa.OpSub:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)-s.ReadGPR(in.Rs2))
		}
	case isa.OpSubI:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)-in.Imm)
		}
	case isa.OpMul:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)*s.ReadGPR(in.Rs2))
		}
	case isa.OpMulI:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)*in.Imm)
		}
	case isa.OpDiv:
		if qp {
			s.WriteGPR(in.Rd, div(s.ReadGPR(in.Rs1), s.ReadGPR(in.Rs2)))
		}
	case isa.OpAnd:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)&s.ReadGPR(in.Rs2))
		}
	case isa.OpAndI:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)&in.Imm)
		}
	case isa.OpOr:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)|s.ReadGPR(in.Rs2))
		}
	case isa.OpOrI:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)|in.Imm)
		}
	case isa.OpXor:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)^s.ReadGPR(in.Rs2))
		}
	case isa.OpXorI:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1)^in.Imm)
		}
	case isa.OpShl:
		if qp {
			s.WriteGPR(in.Rd, shl(s.ReadGPR(in.Rs1), s.ReadGPR(in.Rs2)))
		}
	case isa.OpShlI:
		if qp {
			s.WriteGPR(in.Rd, shl(s.ReadGPR(in.Rs1), in.Imm))
		}
	case isa.OpShr:
		if qp {
			s.WriteGPR(in.Rd, shr(s.ReadGPR(in.Rs1), s.ReadGPR(in.Rs2)))
		}
	case isa.OpShrI:
		if qp {
			s.WriteGPR(in.Rd, shr(s.ReadGPR(in.Rs1), in.Imm))
		}
	case isa.OpMov:
		if qp {
			s.WriteGPR(in.Rd, s.ReadGPR(in.Rs1))
		}
	case isa.OpMovI:
		if qp {
			s.WriteGPR(in.Rd, in.Imm)
		}
	case isa.OpLoad:
		addr := uint64(s.ReadGPR(in.Rs1) + in.Imm)
		info.IsMem, info.MemAddr = true, addr
		if qp {
			s.WriteGPR(in.Rd, int64(s.Mem.Read64(addr)))
		}
	case isa.OpStore:
		addr := uint64(s.ReadGPR(in.Rs1) + in.Imm)
		info.IsMem, info.MemAddr = true, addr
		if qp {
			s.Mem.Write64(addr, uint64(s.ReadGPR(in.Rs2)))
		}
	case isa.OpFLoad:
		addr := uint64(s.ReadGPR(in.Rs1) + in.Imm)
		info.IsMem, info.MemAddr = true, addr
		if qp {
			s.FPR[in.Rd] = math.Float64frombits(s.Mem.Read64(addr))
		}
	case isa.OpFStore:
		addr := uint64(s.ReadGPR(in.Rs1) + in.Imm)
		info.IsMem, info.MemAddr = true, addr
		if qp {
			s.Mem.Write64(addr, math.Float64bits(s.FPR[in.Rs2]))
		}
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		if qp {
			s.FPR[in.Rd] = fpALU(in.Op, s.FPR[in.Rs1], s.FPR[in.Rs2])
		}
	case isa.OpFMov:
		if qp {
			s.FPR[in.Rd] = s.FPR[in.Rs1]
		}
	case isa.OpFMovI:
		if qp {
			s.FPR[in.Rd] = math.Float64frombits(uint64(in.Imm))
		}
	case isa.OpFCvtIF:
		if qp {
			s.FPR[in.Rd] = float64(s.ReadGPR(in.Rs1))
		}
	case isa.OpFCvtFI:
		if qp {
			s.WriteGPR(in.Rd, int64(s.FPR[in.Rs1]))
		}
	case isa.OpCmp, isa.OpCmpI, isa.OpFCmp:
		var cond bool
		switch in.Op {
		case isa.OpCmp:
			cond = in.Rel.Eval(s.ReadGPR(in.Rs1), s.ReadGPR(in.Rs2))
		case isa.OpCmpI:
			cond = in.Rel.Eval(s.ReadGPR(in.Rs1), in.Imm)
		case isa.OpFCmp:
			cond = in.Rel.EvalFloat(s.FPR[in.Rs1], s.FPR[in.Rs2])
		}
		info.IsCmp, info.Cond = true, cond
		out := in.CType.Apply(qp, cond)
		info.Out = out
		if out.Write1 {
			s.WritePred(in.P1, out.Val1)
		}
		if out.Write2 {
			s.WritePred(in.P2, out.Val2)
		}
	case isa.OpBr:
		info.IsBranch = true
		info.Target = in.Target
		if qp {
			info.Taken = true
			nextPC = in.Target
		}
	case isa.OpCall:
		info.IsBranch = true
		info.Target = in.Target
		if qp {
			info.Taken = true
			s.WriteGPR(in.Rd, int64(pc+1))
			nextPC = in.Target
		}
	case isa.OpRet, isa.OpBrInd:
		info.IsBranch = true
		t := int(s.ReadGPR(in.Rs1))
		info.Target = t
		if qp {
			info.Taken = true
			nextPC = t
		}
	default:
		panic(fmt.Sprintf("emulator: unknown op %v at @%d", in.Op, pc))
	}

	s.PC = nextPC
	e.Steps++
}

// Run executes up to maxSteps instructions (0 means unbounded) and
// returns the number of steps taken, counting the one that finds the
// PC off the program. It stops at halt.
func (e *Emulator) Run(maxSteps uint64) uint64 {
	var info StepInfo
	var n uint64
	for !e.Halted && (maxSteps == 0 || n < maxSteps) {
		e.StepInto(&info)
		n++
	}
	return n
}

// intALU evaluates an integer ALU operation, register-register or
// immediate form alike (b is rs2 or the immediate), with one dispatch.
func intALU(op isa.Op, a, b int64) int64 {
	switch op {
	case isa.OpAdd, isa.OpAddI:
		return a + b
	case isa.OpSub, isa.OpSubI:
		return a - b
	case isa.OpMul, isa.OpMulI:
		return a * b
	case isa.OpDiv:
		return div(a, b)
	case isa.OpAnd, isa.OpAndI:
		return a & b
	case isa.OpOr, isa.OpOrI:
		return a | b
	case isa.OpXor, isa.OpXorI:
		return a ^ b
	case isa.OpShl, isa.OpShlI:
		return shl(a, b)
	case isa.OpShr, isa.OpShrI:
		return shr(a, b)
	}
	panic("emulator: not an int ALU op")
}

// div is the trap-free division: by zero it yields all-ones.
func div(a, b int64) int64 {
	if b == 0 {
		return -1
	}
	// Avoid the INT64_MIN / -1 overflow trap.
	if a == math.MinInt64 && b == -1 {
		return math.MinInt64
	}
	return a / b
}

// shl and shr shift by the low six bits of b; shr is logical.
func shl(a, b int64) int64 { return a << (uint64(b) & 63) }
func shr(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) }

func fpALU(op isa.Op, a, b float64) float64 {
	switch op {
	case isa.OpFAdd:
		return a + b
	case isa.OpFSub:
		return a - b
	case isa.OpFMul:
		return a * b
	case isa.OpFDiv:
		return a / b
	}
	panic("emulator: not an fp ALU op")
}

// ExecALU evaluates an integer ALU operation for the pipeline's execute
// stage (shared semantics with the emulator so co-simulation matches).
func ExecALU(op isa.Op, a, b int64) int64 { return intALU(op, a, b) }

// ExecImmALU evaluates an immediate-form ALU operation.
func ExecImmALU(op isa.Op, a, imm int64) int64 { return intALU(op, a, imm) }

// ExecFPALU evaluates a floating ALU operation.
func ExecFPALU(op isa.Op, a, b float64) float64 { return fpALU(op, a, b) }
