package pipeline

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/peppa"
	"repro/internal/predictor"
)

// static is the predecoded, per-PC part of an instruction: the opcode
// predicates, the issue class (which stands for IsMem and IsFP), the
// latency, the source lists the cycle model reads and the instruction's
// predictor sites. New decodes each program instruction once; fetch
// points the uop at its record, so no stage re-derives them from the
// opcode, or a table index from the PC, on every dynamic instance.
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

	// Predictor sites, built by New for the configured scheme's
	// predictors and left zero elsewhere: a conditional branch's
	// gshare, second-level (the conventional predictor, or the
	// predicate scheme's shadow) and PEP-PA sites, a compare's
	// predicate-predictor site and an indirect branch's target slot.
	gshare predictor.GshareSite
	l2     predictor.TwoLevelSite
	pep    peppa.Site
	pp     core.Site
	itab   int32
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

// buildSites fills s's predictor sites for the instruction in at pc,
// from the pipeline's predictors.
func (pl *Pipeline) buildSites(s *static, in *isa.Inst, pc int) {
	addr := instAddr(pc)
	switch {
	case s.isCompare && pl.pp != nil:
		s.pp = pl.pp.Site(addr)
	case in.Op == isa.OpBrInd:
		s.itab = int32(pl.itab.Slot(addr))
	case in.Op == isa.OpBr && s.isCond:
		s.gshare = pl.gshare.Site(addr)
		switch {
		case pl.twolevel != nil:
			s.l2 = pl.twolevel.Site(addr)
		case pl.shadow != nil:
			s.l2 = pl.shadow.Site(addr)
		case pl.pep != nil:
			s.pep = pl.pep.Site(addr)
		}
	}
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
