package pipeline

import (
	"repro/internal/isa"
	"repro/internal/predictor"
)

// decoded is the part of an instruction's predecode that the stages
// read: the operand fields, the opcode predicates, the issue class
// (which stands for IsMem and IsFP), the latency, the source lists and
// the resources rename takes. Fetch copies it into the uop, so no later
// stage reaches back to the static record or the isa.Inst.
type decoded struct {
	operands
	regI        [2]isa.Reg // GPR sources (isa.Inst.GPRSources)
	regF        [2]isa.Reg // FPR sources (isa.Inst.FPRSources)
	nRegI       uint8
	nRegF       uint8
	class       uopClass // rename turns a cancelled uop's into classNone
	queue       uint8    // issue queue: iqInt, iqFP or iqBr
	lat         uint8    // isa.Inst.Latency
	isCompare   bool
	isBranch    bool
	isCond      bool
	isDirect    bool
	isLoad      bool
	isStore     bool
	isHalt      bool
	isBrInd     bool
	writesGPR   bool
	writesFPR   bool
	plainRetire bool // no branch, compare or halt: commit's fast path
	needs       needs
}

// needs counts the free entries renaming an instruction takes, beyond
// its issue-queue entry, so rename checks them with no branch on the
// instruction's kind.
type needs struct {
	regI, regF, regP uint8 // physical registers
	ldQ, stQ         uint8 // load- and store-queue entries
}

// operands are the isa.Inst fields the stages read, copied so that a
// uop holds no pointer.
type operands struct {
	imm    int64
	target int
	op     isa.Op
	rd     isa.Reg
	qp     isa.PredReg
	p1, p2 isa.PredReg
	rel    isa.Rel
	ctype  isa.CmpType
}

// static is the predecoded, per-PC record of an instruction: its
// decoded part and its predictor sites. New decodes each program
// instruction once; fetch copies the decoded part into the uop, and
// fetch and commit find the sites by the uop's PC, so no stage
// re-derives them from the opcode, or a table index from the PC, on
// every dynamic instance.
type static struct {
	decoded

	// First-level predictor sites, built by New and left zero
	// elsewhere: a conditional branch's gshare site and an indirect
	// branch's target slot. The second-level sites are the scheme's
	// (package scheme).
	gshare predictor.GshareSite
	itab   int32
}

// decode builds the static record of one instruction, with its
// predictor sites left zero.
func decode(in *isa.Inst) static {
	var s static
	d := &s.decoded
	*d = decoded{
		operands: operands{
			imm: in.Imm, target: in.Target, op: in.Op, rd: in.Rd, qp: in.QP,
			p1: in.P1, p2: in.P2, rel: in.Rel, ctype: in.CType,
		},
		class:     classify(in),
		lat:       uint8(in.Latency()),
		isCompare: in.IsCompare(),
		isBranch:  in.IsBranch(),
		isCond:    in.IsConditional(),
		isDirect:  in.IsDirect(),
		isLoad:    in.IsLoad(),
		isStore:   in.IsStore(),
		isHalt:    in.Op == isa.OpHalt,
		isBrInd:   in.Op == isa.OpBrInd,
		writesGPR: in.WritesGPR(),
		writesFPR: in.WritesFPR(),
	}
	switch d.class {
	case classFP:
		d.queue = iqFP
	case classBr:
		d.queue = iqBr
	default:
		d.queue = iqInt
	}
	b := func(v bool) uint8 {
		if v {
			return 1
		}
		return 0
	}
	d.needs = needs{regI: b(d.writesGPR), regF: b(d.writesFPR), regP: 2 * b(d.isCompare), ldQ: b(d.isLoad), stQ: b(d.isStore)}
	d.plainRetire = !d.isBranch && !d.isCompare && !d.isHalt
	d.nRegI = uint8(copy(d.regI[:], in.GPRSources()))
	d.nRegF = uint8(copy(d.regF[:], in.FPRSources()))
	return s
}

// classify routes an instruction to an issue class.
func classify(in *isa.Inst) uopClass {
	switch {
	case in.Op == isa.OpNop || in.Op == isa.OpHalt:
		return classNone
	case in.IsBranch():
		return classBr
	case in.IsMem():
		return classMem
	case in.IsFP():
		return classFP
	default:
		return classInt
	}
}
