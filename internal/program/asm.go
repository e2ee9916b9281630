package program

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// ErrAsm is wrapped by every error Assemble reports: a line it cannot
// parse, or a branch to a label the text never defines.
var ErrAsm = errors.New("asm")

// Assemble parses assembler text into a program. The syntax is the one
// Disassemble emits (minus the index column):
//
//	label:
//	  (p3) cmp.lt.unc p1,p2 = r4,r5
//	  (p1) br label
//	  movi r1 = 42
//	  ld r2 = [r1+8]
//	  st [r1+0] = r2
//	  halt
//
// Comments start with ';' or '#' and run to end of line. Blank lines
// are ignored. Labels stand alone or prefix an instruction.
func Assemble(name, text string) (*Program, error) {
	p := New(name)
	for ln, raw := range strings.Split(text, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading labels (possibly several).
		for {
			i := strings.Index(line, ":")
			if i < 0 || strings.ContainsAny(line[:i], " \t(=[") {
				break
			}
			p.Mark(strings.TrimSpace(line[:i]))
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		in, err := parseInst(line)
		if err != nil {
			return nil, fmt.Errorf("%w: %s:%d: %w", ErrAsm, name, ln+1, err)
		}
		p.Append(in)
	}
	if err := p.Resolve(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrAsm, err)
	}
	return p, nil
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		return s[:i]
	}
	return s
}

// parseInst parses a single instruction line.
func parseInst(line string) (isa.Inst, error) {
	var in isa.Inst

	// Optional guard "(pN)".
	if strings.HasPrefix(line, "(") {
		end := strings.Index(line, ")")
		if end < 0 {
			return in, fmt.Errorf("unterminated guard in %q", line)
		}
		qp, err := parsePred(strings.TrimSpace(line[1:end]))
		if err != nil {
			return in, err
		}
		in.QP = qp
		line = strings.TrimSpace(line[end+1:])
	}

	mnemonic, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)

	// Compares: cmp.REL[.CTYPE], cmpi..., fcmp...
	if op, ok := cmpOps[strings.SplitN(mnemonic, ".", 2)[0]]; ok {
		return parseCmp(in, op, mnemonic, rest)
	}

	switch mnemonic {
	case "nop":
		in.Op = isa.OpNop
		return in, nil
	case "halt":
		in.Op = isa.OpHalt
		return in, nil
	case "br":
		in.Op = isa.OpBr
		return in, parseTarget(&in, rest)
	case "call":
		in.Op = isa.OpCall
		lhs, rhs, ok := strings.Cut(rest, "=")
		if !ok {
			return in, fmt.Errorf("call needs rd = label: %q", rest)
		}
		rd, err := parseGPR(strings.TrimSpace(lhs))
		if err != nil {
			return in, err
		}
		in.Rd = rd
		return in, parseTarget(&in, strings.TrimSpace(rhs))
	case "ret", "brind":
		in.Op = isa.OpRet
		if mnemonic == "brind" {
			in.Op = isa.OpBrInd
		}
		rs, err := parseGPR(rest)
		if err != nil {
			return in, err
		}
		in.Rs1 = rs
		return in, nil
	case "ld", "fld":
		in.Op = isa.OpLoad
		if mnemonic == "fld" {
			in.Op = isa.OpFLoad
		}
		lhs, rhs, ok := strings.Cut(rest, "=")
		if !ok {
			return in, fmt.Errorf("load needs rd = [base+off]: %q", rest)
		}
		rd, err := parseReg(strings.TrimSpace(lhs))
		if err != nil {
			return in, err
		}
		in.Rd = rd
		return in, parseMemRef(&in, strings.TrimSpace(rhs))
	case "st", "fst":
		in.Op = isa.OpStore
		if mnemonic == "fst" {
			in.Op = isa.OpFStore
		}
		lhs, rhs, ok := strings.Cut(rest, "=")
		if !ok {
			return in, fmt.Errorf("store needs [base+off] = rs: %q", rest)
		}
		if err := parseMemRef(&in, strings.TrimSpace(lhs)); err != nil {
			return in, err
		}
		rs, err := parseReg(strings.TrimSpace(rhs))
		if err != nil {
			return in, err
		}
		in.Rs2 = rs
		return in, nil
	case "fmovi":
		in.Op = isa.OpFMovI
		lhs, rhs, ok := strings.Cut(rest, "=")
		if !ok {
			return in, fmt.Errorf("fmovi needs fd = value: %q", rest)
		}
		rd, err := parseReg(strings.TrimSpace(lhs))
		if err != nil {
			return in, err
		}
		in.Rd = rd
		f, err := strconv.ParseFloat(strings.TrimSpace(rhs), 64)
		if err != nil {
			return in, err
		}
		in.Imm = int64(math.Float64bits(f))
		return in, nil
	}

	// Remaining ops share the "OP dst = srcs" shape, with the sources
	// the opcode reads and no others.
	alu, ok := aluOps[mnemonic]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in.Op = alu.op
	lhs, rhs, found := strings.Cut(rest, "=")
	if !found {
		return in, fmt.Errorf("%s needs dst = operands: %q", mnemonic, rest)
	}
	rd, err := parseReg(strings.TrimSpace(lhs))
	if err != nil {
		return in, err
	}
	in.Rd = rd
	ops := splitOperands(rhs)
	if len(ops) != len(alu.srcs) {
		return in, fmt.Errorf("%s: expected %d operands, got %d", mnemonic, len(alu.srcs), len(ops))
	}
	regs := []*isa.Reg{&in.Rs1, &in.Rs2}
	for k, kind := range alu.srcs {
		if kind == 'i' {
			imm, err := strconv.ParseInt(ops[k], 10, 64)
			if err != nil {
				return in, fmt.Errorf("%s needs an immediate operand: %q", mnemonic, ops[k])
			}
			in.Imm = imm
			continue
		}
		r, err := parseReg(ops[k])
		if err != nil {
			return in, err
		}
		*regs[0], regs = r, regs[1:]
	}
	return in, nil
}

var cmpOps = map[string]isa.Op{
	"cmp": isa.OpCmp, "cmpi": isa.OpCmpI, "fcmp": isa.OpFCmp,
}

// aluOps maps the remaining mnemonics to their opcode and sources, one
// letter per operand after '=': r a register, i an immediate.
var aluOps = map[string]struct {
	op   isa.Op
	srcs string
}{
	"add": {isa.OpAdd, "rr"}, "sub": {isa.OpSub, "rr"}, "mul": {isa.OpMul, "rr"}, "div": {isa.OpDiv, "rr"},
	"and": {isa.OpAnd, "rr"}, "or": {isa.OpOr, "rr"}, "xor": {isa.OpXor, "rr"},
	"shl": {isa.OpShl, "rr"}, "shr": {isa.OpShr, "rr"},
	"addi": {isa.OpAddI, "ri"}, "subi": {isa.OpSubI, "ri"}, "muli": {isa.OpMulI, "ri"}, "andi": {isa.OpAndI, "ri"},
	"ori": {isa.OpOrI, "ri"}, "xori": {isa.OpXorI, "ri"}, "shli": {isa.OpShlI, "ri"}, "shri": {isa.OpShrI, "ri"},
	"mov": {isa.OpMov, "r"}, "movi": {isa.OpMovI, "i"},
	"fadd": {isa.OpFAdd, "rr"}, "fsub": {isa.OpFSub, "rr"}, "fmul": {isa.OpFMul, "rr"}, "fdiv": {isa.OpFDiv, "rr"},
	"fmov": {isa.OpFMov, "r"}, "fcvt.if": {isa.OpFCvtIF, "r"}, "fcvt.fi": {isa.OpFCvtFI, "r"},
}

var relNames = map[string]isa.Rel{
	"eq": isa.RelEQ, "ne": isa.RelNE, "lt": isa.RelLT, "le": isa.RelLE,
	"gt": isa.RelGT, "ge": isa.RelGE, "ltu": isa.RelLTU, "geu": isa.RelGEU,
}

var ctypeNames = map[string]isa.CmpType{
	"unc": isa.CmpUnc, "and": isa.CmpAnd, "or": isa.CmpOr,
}

func parseCmp(in isa.Inst, op isa.Op, mnemonic, rest string) (isa.Inst, error) {
	in.Op = op
	parts := strings.Split(mnemonic, ".")
	if len(parts) < 2 {
		return in, fmt.Errorf("compare needs a relation: %q", mnemonic)
	}
	rel, ok := relNames[parts[1]]
	if !ok {
		return in, fmt.Errorf("unknown relation %q", parts[1])
	}
	in.Rel = rel
	in.CType = isa.CmpNorm
	if len(parts) >= 3 {
		ct, ok := ctypeNames[parts[2]]
		if !ok {
			return in, fmt.Errorf("unknown compare type %q", parts[2])
		}
		in.CType = ct
	}
	lhs, rhs, found := strings.Cut(rest, "=")
	if !found {
		return in, fmt.Errorf("compare needs p1,p2 = operands: %q", rest)
	}
	dsts := splitOperands(lhs)
	if len(dsts) != 2 {
		return in, fmt.Errorf("compare needs two predicate destinations: %q", lhs)
	}
	p1, err := parsePred(dsts[0])
	if err != nil {
		return in, err
	}
	p2, err := parsePred(dsts[1])
	if err != nil {
		return in, err
	}
	in.P1, in.P2 = p1, p2
	srcs := splitOperands(rhs)
	if len(srcs) != 2 {
		return in, fmt.Errorf("compare needs two source operands: %q", rhs)
	}
	r1, err := parseReg(srcs[0])
	if err != nil {
		return in, err
	}
	in.Rs1 = r1
	if op == isa.OpCmpI {
		imm, err := strconv.ParseInt(srcs[1], 10, 64)
		if err != nil {
			return in, fmt.Errorf("cmpi needs an immediate second operand: %q", srcs[1])
		}
		in.Imm = imm
	} else {
		r2, err := parseReg(srcs[1])
		if err != nil {
			return in, err
		}
		in.Rs2 = r2
	}
	return in, nil
}

// parseMemRef parses "[rN+off]" or "[rN-off]" into Rs1/Imm.
func parseMemRef(in *isa.Inst, s string) error {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return fmt.Errorf("memory operand must be [base+off]: %q", s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return fmt.Errorf("memory operand needs a base register: %q", s)
	}
	sep := strings.IndexAny(body[1:], "+-")
	base, off := body, "0"
	if sep >= 0 {
		base, off = body[:sep+1], body[sep+1:]
	}
	r, err := parseGPR(strings.TrimSpace(base))
	if err != nil {
		return err
	}
	in.Rs1 = r
	imm, err := strconv.ParseInt(strings.TrimSpace(off), 10, 64)
	if err != nil {
		return fmt.Errorf("bad offset %q", off)
	}
	in.Imm = imm
	return nil
}

func parseTarget(in *isa.Inst, s string) error {
	s = strings.TrimSpace(s)
	if s == "" {
		return fmt.Errorf("branch needs a target")
	}
	if strings.HasPrefix(s, "@") {
		t, err := strconv.Atoi(s[1:])
		if err != nil {
			return fmt.Errorf("bad absolute target %q", s)
		}
		in.Target = t
		return nil
	}
	in.Label = s
	return nil
}

func splitOperands(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseReg accepts rN or fN (the instruction opcode disambiguates).
func parseReg(s string) (isa.Reg, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'f') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumGPR {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func parseGPR(s string) (isa.Reg, error) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, fmt.Errorf("expected integer register, got %q", s)
	}
	return parseReg(s)
}

func parsePred(s string) (isa.PredReg, error) {
	if len(s) < 2 || s[0] != 'p' {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumPred {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	return isa.PredReg(n), nil
}
