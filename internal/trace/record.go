package trace

import (
	"context"
	"encoding/binary"

	"repro/internal/emulator"
	"repro/internal/isa"
	"repro/internal/program"
)

// recordChunk is the emulator-step slice between context checks while
// recording, so cancellation lands within a fraction of a millisecond
// without the check appearing in profiles.
const recordChunk = 65536

// KindOf returns the kind of record a committed instance of in leaves
// in a trace, or 0 for a plain instruction, which leaves none (an
// unconditional direct branch is predictor-invisible, so it is plain).
// Replay checks every event against the kind of the instruction at its
// PC.
func KindOf(in *isa.Inst) uint8 {
	switch {
	case in.Op == isa.OpHalt:
		return EvHalt
	case in.IsCompare():
		return EvCompare
	case in.Op == isa.OpCall:
		return EvCall
	case in.Op == isa.OpRet:
		return EvRet
	case in.Op == isa.OpBrInd:
		return EvBrInd
	case in.Op == isa.OpBr && in.IsConditional():
		return EvCondBr
	}
	return 0
}

// siteKind returns the kind byte every committed instance of in
// starts with: KindOf with the flags that follow from the instruction
// alone (a compare's guard and type) already set. Record computes it
// once per static instruction.
func siteKind(in *isa.Inst) uint8 {
	kind := KindOf(in)
	if kind == EvCompare {
		if in.QP != isa.P0 {
			kind |= fCmpGuarded
		}
		if in.CType == isa.CmpUnc {
			kind |= fCmpUnc
		}
	}
	return kind
}

// Record runs the program on the functional emulator for at most
// maxSteps committed instructions (0 = run to halt) and returns its
// committed-stream trace. It checks ctx between step slices, so a long
// recording is promptly cancellable.
func Record(ctx context.Context, p *program.Program, maxSteps uint64) (*Trace, error) {
	kinds := make([]uint8, p.Len())
	for pc := range p.Insts {
		kinds[pc] = siteKind(&p.Insts[pc])
	}
	// A budgeted recording is presized to 1.25 bytes a step, above the
	// densest stream the suite and the example specs record (1.19), so
	// it appends without growing.
	var ev []byte
	if maxSteps > 0 {
		ev = make([]byte, 0, maxSteps+maxSteps/4)
	}
	em := emulator.New(p)
	var info emulator.StepInfo
	var gap uint64 // plain instructions since the last event
	for !em.Halted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := uint64(recordChunk)
		if maxSteps > 0 {
			left := maxSteps - em.Steps
			if left == 0 {
				break
			}
			chunk = min(chunk, left)
		}
		for ; chunk > 0 && !em.Halted; chunk-- {
			pc := em.State.PC
			em.StepInto(&info)
			if uint(pc) >= uint(len(kinds)) {
				break // the PC left the program: StepInto latched Halted
			}
			kind := kinds[pc]
			if kind == 0 {
				gap++
				continue
			}
			ev = binary.AppendUvarint(ev, gap)
			gap = 0
			in := &p.Insts[pc]
			switch kind & 7 {
			case EvHalt:
				ev = append(ev, kind)
			case EvCompare:
				if info.QPTrue {
					kind |= fCmpQPTrue
				}
				var ob byte
				if info.Out.Write1 {
					ob |= 1
				}
				if info.Out.Val1 {
					ob |= 2
				}
				if info.Out.Write2 {
					ob |= 4
				}
				if info.Out.Val2 {
					ob |= 8
				}
				ev = append(ev, kind, ob)
				ev = binary.AppendUvarint(ev, uint64(pc))
				ev = append(ev, byte(in.P1), byte(in.P2))
				if in.QP != isa.P0 {
					ev = append(ev, byte(in.QP))
				}
			case EvCall:
				ev = append(ev, kind)
				ev = binary.AppendUvarint(ev, uint64(pc))
			case EvRet, EvBrInd:
				if info.Taken {
					kind |= flagTaken
				}
				ev = append(ev, kind)
				ev = binary.AppendUvarint(ev, uint64(pc))
				ev = binary.AppendUvarint(ev, uint64(info.Target))
			case EvCondBr:
				if info.Taken {
					kind |= flagTaken
				}
				ev = append(ev, kind)
				ev = binary.AppendUvarint(ev, uint64(pc))
				ev = append(ev, byte(in.QP))
			}
		}
	}
	t := &Trace{
		ProgHash: HashProgram(p),
		Steps:    em.Steps,
		Halted:   em.Halted,
		Events:   ev,
	}
	recordings.Inc()
	return t, nil
}
