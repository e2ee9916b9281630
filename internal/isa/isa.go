// Package isa defines a predicated, compare-and-branch instruction set in
// the style of IA-64, the substrate ISA of Quiñones et al. (HPCA 2007).
//
// Every instruction carries a qualifying predicate register (QP); when the
// predicate evaluates to false the instruction behaves as a no-op (except
// for and/or-type compares, which have their own nullification semantics).
// Compare instructions write TWO predicate destinations, and conditional
// branches read a single guarding predicate: this producer/consumer split
// is what the paper's predicate predictor exploits.
package isa

import (
	"fmt"
	"math"
	"strconv"
)

// Architectural sizes. P0 is hardwired to true and R0 to zero, as in IA-64.
const (
	NumGPR  = 128 // general purpose integer registers r0..r127
	NumFPR  = 128 // floating point registers f0..f127
	NumPred = 64  // predicate registers p0..p63
)

// Reg names an integer or floating-point architectural register.
type Reg uint8

// PredReg names an architectural predicate register.
type PredReg uint8

// P0 is the always-true predicate register; writes to it are discarded.
const P0 PredReg = 0

// R0 is the always-zero integer register; writes to it are discarded.
const R0 Reg = 0

// Op enumerates instruction opcodes.
type Op uint8

const (
	OpNop Op = iota

	// Integer ALU, register-register.
	OpAdd
	OpSub
	OpMul
	OpDiv // division by zero yields all-ones, as a trap-free convention
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right

	// Integer ALU, register-immediate.
	OpAddI
	OpSubI
	OpMulI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI

	// Moves.
	OpMov  // rd = rs1
	OpMovI // rd = imm

	// Memory. Effective address = rs1 + imm.
	OpLoad  // rd = mem64[rs1+imm]
	OpStore // mem64[rs1+imm] = rs2

	// Floating point (operates on the FP register file).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMov
	OpFMovI // frd = float64 from Imm bit pattern
	OpFLoad
	OpFStore
	OpFCvtIF // frd = float64(rs1)  (int -> float)
	OpFCvtFI // rd  = int64(frs1)   (float -> int, trunc)

	// Predicate producers. Two predicate destinations P1, P2.
	OpCmp  // integer compare: relation Rel applied to rs1, rs2
	OpCmpI // integer compare with immediate second operand
	OpFCmp // floating compare on frs1, frs2

	// Control flow.
	OpBr    // conditional branch: taken iff QP is true
	OpCall  // rd = return address (PC+1); jump to Target; always guarded by QP
	OpRet   // indirect jump to rs1 (return address); guarded by QP
	OpBrInd // indirect jump to rs1; guarded by QP
	OpHalt  // stop the program

	numOps // sentinel
)

var opNames = [numOps]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddI: "addi", OpSubI: "subi", OpMulI: "muli", OpAndI: "andi",
	OpOrI: "ori", OpXorI: "xori", OpShlI: "shli", OpShrI: "shri",
	OpMov: "mov", OpMovI: "movi",
	OpLoad: "ld", OpStore: "st",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFMov: "fmov", OpFMovI: "fmovi", OpFLoad: "fld", OpFStore: "fst",
	OpFCvtIF: "fcvt.if", OpFCvtFI: "fcvt.fi",
	OpCmp: "cmp", OpCmpI: "cmpi", OpFCmp: "fcmp",
	OpBr: "br", OpCall: "call", OpRet: "ret", OpBrInd: "brind",
	OpHalt: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Rel is a compare relation.
type Rel uint8

const (
	RelEQ Rel = iota
	RelNE
	RelLT // signed
	RelLE
	RelGT
	RelGE
	RelLTU // unsigned
	RelGEU
	numRels
)

var relNames = [numRels]string{"eq", "ne", "lt", "le", "gt", "ge", "ltu", "geu"}

// String returns the assembler suffix for the relation.
func (r Rel) String() string {
	if int(r) < len(relNames) {
		return relNames[r]
	}
	return fmt.Sprintf("rel(%d)", uint8(r))
}

// Eval applies the relation to two signed 64-bit values (unsigned
// relations reinterpret the bit patterns).
func (r Rel) Eval(a, b int64) bool {
	switch r {
	case RelEQ:
		return a == b
	case RelNE:
		return a != b
	case RelLT:
		return a < b
	case RelLE:
		return a <= b
	case RelGT:
		return a > b
	case RelGE:
		return a >= b
	case RelLTU:
		return uint64(a) < uint64(b)
	case RelGEU:
		return uint64(a) >= uint64(b)
	}
	return false
}

// EvalFloat applies the relation to two float64 values. Unsigned
// relations are treated as their signed counterparts.
func (r Rel) EvalFloat(a, b float64) bool {
	switch r {
	case RelEQ:
		return a == b
	case RelNE:
		return a != b
	case RelLT, RelLTU:
		return a < b
	case RelLE:
		return a <= b
	case RelGT:
		return a > b
	case RelGE, RelGEU:
		return a >= b
	}
	return false
}

// CmpType is the IA-64 compare type, which governs how the two predicate
// destinations are written (Intel IA-64 ISA vol. 3, "cmp").
type CmpType uint8

const (
	// CmpUnc: if QP, p1 = cond and p2 = !cond; if !QP, both are cleared
	// (the "unconditional" type still clears its targets when nullified).
	CmpUnc CmpType = iota
	// CmpNorm: if QP, p1 = cond and p2 = !cond; if !QP, both unchanged.
	CmpNorm
	// CmpAnd: if QP and !cond, both targets cleared; otherwise unchanged.
	CmpAnd
	// CmpOr: if QP and cond, both targets set; otherwise unchanged.
	CmpOr
	numCmpTypes
)

var cmpTypeNames = [numCmpTypes]string{"unc", "", "and", "or"}

// String returns the assembler suffix for the compare type ("" for the
// normal type).
func (c CmpType) String() string {
	if int(c) < len(cmpTypeNames) {
		return cmpTypeNames[c]
	}
	return fmt.Sprintf("ctype(%d)", uint8(c))
}

// PredicateOutcome describes the values a compare writes into its two
// predicate destinations. Written reports whether each destination is
// written at all (and/or types leave targets unchanged in some cases).
type PredicateOutcome struct {
	Write1, Write2 bool
	Val1, Val2     bool
}

// Apply computes the predicate outcome of a compare with qualifying
// predicate value qp and condition value cond under compare type c.
func (c CmpType) Apply(qp, cond bool) PredicateOutcome {
	switch c {
	case CmpUnc:
		if !qp {
			return PredicateOutcome{Write1: true, Write2: true, Val1: false, Val2: false}
		}
		return PredicateOutcome{Write1: true, Write2: true, Val1: cond, Val2: !cond}
	case CmpNorm:
		if !qp {
			return PredicateOutcome{}
		}
		return PredicateOutcome{Write1: true, Write2: true, Val1: cond, Val2: !cond}
	case CmpAnd:
		if qp && !cond {
			return PredicateOutcome{Write1: true, Write2: true, Val1: false, Val2: false}
		}
		return PredicateOutcome{}
	case CmpOr:
		if qp && cond {
			return PredicateOutcome{Write1: true, Write2: true, Val1: true, Val2: true}
		}
		return PredicateOutcome{}
	}
	return PredicateOutcome{}
}

// Inst is one decoded instruction. Fields are interpreted per opcode;
// unused fields are zero. Target is an instruction index into the
// program, filled by the assembler from Label when present.
type Inst struct {
	Op     Op
	QP     PredReg // qualifying predicate; P0 means "always"
	Rd     Reg     // integer or FP destination, per opcode
	Rs1    Reg     // first source
	Rs2    Reg     // second source
	Imm    int64   // immediate operand / address offset
	P1, P2 PredReg // predicate destinations (compares)
	Rel    Rel     // compare relation
	CType  CmpType // compare type
	Target int     // branch/call target, instruction index
	// Label is the symbolic target before assembly, resolved into
	// Target before any program is traced or hashed.
	Label string
}

// IsCompare reports whether the instruction produces predicates.
func (in *Inst) IsCompare() bool {
	return in.Op == OpCmp || in.Op == OpCmpI || in.Op == OpFCmp
}

// IsBranch reports whether the instruction is a control transfer.
func (in *Inst) IsBranch() bool {
	switch in.Op {
	case OpBr, OpCall, OpRet, OpBrInd:
		return true
	}
	return false
}

// IsConditional reports whether the control transfer depends on its
// qualifying predicate (all our branches do unless guarded by P0).
func (in *Inst) IsConditional() bool {
	return in.IsBranch() && in.QP != P0
}

// IsDirect reports whether the branch target is encoded in the
// instruction (as opposed to an indirect register target).
func (in *Inst) IsDirect() bool {
	return in.Op == OpBr || in.Op == OpCall
}

// IsMem reports whether the instruction accesses memory.
func (in *Inst) IsMem() bool {
	switch in.Op {
	case OpLoad, OpStore, OpFLoad, OpFStore:
		return true
	}
	return false
}

// IsLoad reports whether the instruction reads memory.
func (in *Inst) IsLoad() bool { return in.Op == OpLoad || in.Op == OpFLoad }

// IsStore reports whether the instruction writes memory.
func (in *Inst) IsStore() bool { return in.Op == OpStore || in.Op == OpFStore }

// IsFP reports whether the instruction executes in the floating-point
// pipeline.
func (in *Inst) IsFP() bool {
	switch in.Op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMov, OpFMovI, OpFLoad, OpFStore,
		OpFCvtIF, OpFCvtFI, OpFCmp:
		return true
	}
	return false
}

// WritesGPR reports whether the instruction writes an integer register.
func (in *Inst) WritesGPR() bool {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpAddI, OpSubI, OpMulI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI,
		OpMov, OpMovI, OpLoad, OpFCvtFI, OpCall:
		return in.Rd != R0
	}
	return false
}

// WritesFPR reports whether the instruction writes a floating register.
func (in *Inst) WritesFPR() bool {
	switch in.Op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMov, OpFMovI, OpFLoad, OpFCvtIF:
		return true
	}
	return false
}

// GPRSources returns the integer source registers the instruction reads
// (not counting the qualifying predicate). R0 sources are included; the
// pipeline treats them as always-ready.
func (in *Inst) GPRSources() []Reg {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
		return []Reg{in.Rs1, in.Rs2}
	case OpAddI, OpSubI, OpMulI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI,
		OpMov, OpCmpI, OpLoad, OpFLoad, OpRet, OpBrInd, OpFCvtIF:
		return []Reg{in.Rs1}
	case OpStore:
		return []Reg{in.Rs1, in.Rs2}
	case OpFStore:
		return []Reg{in.Rs1} // address register; data comes from FP file
	}
	return nil
}

// FPRSources returns the floating-point source registers.
func (in *Inst) FPRSources() []Reg {
	switch in.Op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmp:
		return []Reg{in.Rs1, in.Rs2}
	case OpFMov, OpFCvtFI:
		return []Reg{in.Rs1}
	case OpFStore:
		return []Reg{in.Rs2} // data register
	}
	return nil
}

// Latency returns the execution latency of the instruction in cycles,
// excluding memory hierarchy time for loads/stores (which is added by
// the cache model).
func (in *Inst) Latency() int {
	switch in.Op {
	case OpMul, OpMulI:
		return 3
	case OpDiv:
		return 12
	case OpFAdd, OpFSub, OpFCmp, OpFCvtIF, OpFCvtFI:
		return 4
	case OpFMul:
		return 4
	case OpFDiv:
		return 16
	default:
		return 1
	}
}

// String renders the instruction in assembler syntax, e.g.
// "(p3) cmp.lt.unc p1,p2 = r4,r5".
func (in *Inst) String() string {
	guard := ""
	if in.QP != P0 {
		guard = fmt.Sprintf("(p%d) ", in.QP)
	}
	switch in.Op {
	case OpNop:
		return guard + "nop"
	case OpHalt:
		return guard + "halt"
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr:
		return fmt.Sprintf("%s%s r%d = r%d, r%d", guard, in.Op, in.Rd, in.Rs1, in.Rs2)
	case OpAddI, OpSubI, OpMulI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI:
		return fmt.Sprintf("%s%s r%d = r%d, %d", guard, in.Op, in.Rd, in.Rs1, in.Imm)
	case OpMov:
		return fmt.Sprintf("%smov r%d = r%d", guard, in.Rd, in.Rs1)
	case OpMovI:
		return fmt.Sprintf("%smovi r%d = %d", guard, in.Rd, in.Imm)
	case OpLoad:
		return fmt.Sprintf("%sld r%d = [r%d%+d]", guard, in.Rd, in.Rs1, in.Imm)
	case OpStore:
		return fmt.Sprintf("%sst [r%d%+d] = r%d", guard, in.Rs1, in.Imm, in.Rs2)
	case OpFLoad:
		return fmt.Sprintf("%sfld f%d = [r%d%+d]", guard, in.Rd, in.Rs1, in.Imm)
	case OpFStore:
		return fmt.Sprintf("%sfst [r%d%+d] = f%d", guard, in.Rs1, in.Imm, in.Rs2)
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		return fmt.Sprintf("%s%s f%d = f%d, f%d", guard, in.Op, in.Rd, in.Rs1, in.Rs2)
	case OpFMov:
		return fmt.Sprintf("%sfmov f%d = f%d", guard, in.Rd, in.Rs1)
	case OpFMovI:
		return fmt.Sprintf("%sfmovi f%d = %s", guard, in.Rd, strconv.FormatFloat(math.Float64frombits(uint64(in.Imm)), 'g', -1, 64))
	case OpFCvtIF:
		return fmt.Sprintf("%sfcvt.if f%d = r%d", guard, in.Rd, in.Rs1)
	case OpFCvtFI:
		return fmt.Sprintf("%sfcvt.fi r%d = f%d", guard, in.Rd, in.Rs1)
	case OpCmp:
		return fmt.Sprintf("%scmp.%s%s p%d,p%d = r%d,r%d", guard, in.Rel, dotted(in.CType), in.P1, in.P2, in.Rs1, in.Rs2)
	case OpCmpI:
		return fmt.Sprintf("%scmpi.%s%s p%d,p%d = r%d,%d", guard, in.Rel, dotted(in.CType), in.P1, in.P2, in.Rs1, in.Imm)
	case OpFCmp:
		return fmt.Sprintf("%sfcmp.%s%s p%d,p%d = f%d,f%d", guard, in.Rel, dotted(in.CType), in.P1, in.P2, in.Rs1, in.Rs2)
	case OpBr:
		return fmt.Sprintf("%sbr %s", guard, targetString(in))
	case OpCall:
		return fmt.Sprintf("%scall r%d = %s", guard, in.Rd, targetString(in))
	case OpRet:
		return fmt.Sprintf("%sret r%d", guard, in.Rs1)
	case OpBrInd:
		return fmt.Sprintf("%sbrind r%d", guard, in.Rs1)
	}
	return fmt.Sprintf("%s%s", guard, in.Op)
}

func dotted(c CmpType) string {
	s := c.String()
	if s == "" {
		return ""
	}
	return "." + s
}

func targetString(in *Inst) string {
	if in.Label != "" {
		return in.Label
	}
	return fmt.Sprintf("@%d", in.Target)
}
