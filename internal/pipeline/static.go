package pipeline

import "repro/internal/isa"

// static is the predecoded, per-PC part of an instruction: the opcode
// predicates, the issue class (which stands for IsMem and IsFP), the
// latency and the source lists the cycle model reads. New decodes each
// program instruction once; fetch points the uop at its record, so no
// stage re-derives them from the opcode on every dynamic instance.
type static struct {
	srcI      [2]isa.Reg // GPR sources (isa.Inst.GPRSources)
	srcF      [2]isa.Reg // FPR sources (isa.Inst.FPRSources)
	nSrcI     uint8
	nSrcF     uint8
	class     uopClass
	lat       uint8 // isa.Inst.Latency
	isCompare bool
	isBranch  bool
	isCond    bool
	isDirect  bool
	isLoad    bool
	isStore   bool
	writesGPR bool
	writesFPR bool
}

// decode builds the static record of one instruction.
func decode(in *isa.Inst) static {
	s := static{
		class:     classify(in),
		lat:       uint8(in.Latency()),
		isCompare: in.IsCompare(),
		isBranch:  in.IsBranch(),
		isCond:    in.IsConditional(),
		isDirect:  in.IsDirect(),
		isLoad:    in.IsLoad(),
		isStore:   in.IsStore(),
		writesGPR: in.WritesGPR(),
		writesFPR: in.WritesFPR(),
	}
	s.nSrcI = uint8(copy(s.srcI[:], in.GPRSources()))
	s.nSrcF = uint8(copy(s.srcF[:], in.FPRSources()))
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
