package trace

import (
	"bytes"
	"context"

	"repro/internal/emulator"
	"repro/internal/isa"
	"repro/internal/program"
)

// recordChunk is the emulator-step slice between context checks while
// recording, so cancellation lands within a fraction of a millisecond
// without the check appearing in profiles.
const recordChunk = 65536

// recorder accumulates the event stream while observing emulator steps
// through the StepHook seam.
type recorder struct {
	prog *program.Program
	buf  bytes.Buffer
	gap  uint64 // uninteresting instructions since the last event
}

func (r *recorder) event(kind byte) {
	putUvarint(&r.buf, r.gap)
	r.gap = 0
	r.buf.WriteByte(kind)
}

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

func (r *recorder) observe(info emulator.StepInfo) {
	in := r.prog.At(info.PC)
	switch kind := KindOf(in); kind {
	case EvHalt:
		r.event(kind)
	case EvCompare:
		if info.QPTrue {
			kind |= fCmpQPTrue
		}
		if in.QP != isa.P0 {
			kind |= fCmpGuarded
		}
		if in.CType == isa.CmpUnc {
			kind |= fCmpUnc
		}
		r.event(kind)
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
		r.buf.WriteByte(ob)
		putUvarint(&r.buf, uint64(info.PC))
		r.buf.WriteByte(byte(in.P1))
		r.buf.WriteByte(byte(in.P2))
		if in.QP != isa.P0 {
			r.buf.WriteByte(byte(in.QP))
		}
	case EvCall:
		r.event(kind)
		putUvarint(&r.buf, uint64(info.PC))
	case EvRet, EvBrInd:
		if info.Taken {
			kind |= flagTaken
		}
		r.event(kind)
		putUvarint(&r.buf, uint64(info.PC))
		putUvarint(&r.buf, uint64(info.Target))
	case EvCondBr:
		if info.Taken {
			kind |= flagTaken
		}
		r.event(kind)
		putUvarint(&r.buf, uint64(info.PC))
		r.buf.WriteByte(byte(in.QP))
	default:
		// Plain instructions count towards the next event's gap.
		r.gap++
	}
}

// Record runs the program on the functional emulator for at most
// maxSteps committed instructions (0 = run to halt) and returns its
// committed-stream trace. It checks ctx between step slices, so a long
// recording is promptly cancellable.
func Record(ctx context.Context, p *program.Program, maxSteps uint64) (*Trace, error) {
	rec := &recorder{prog: p}
	em := emulator.New(p)
	em.StepHook = rec.observe
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
			if left < chunk {
				chunk = left
			}
		}
		if em.Run(chunk) == 0 {
			break
		}
	}
	t := &Trace{
		ProgHash: HashProgram(p),
		Steps:    em.Steps,
		Halted:   em.Halted,
		Events:   rec.buf.Bytes(),
	}
	recordings.Inc()
	return t, nil
}
