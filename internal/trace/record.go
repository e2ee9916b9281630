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

// Options configures one recording.
type Options struct {
	// MaxSteps bounds the recording (0 = run to halt). The bound is
	// stored in the trace so cache hits can check sufficiency.
	MaxSteps uint64
}

// recorder accumulates the event stream while observing emulator steps
// through the StepHook seam.
type recorder struct {
	prog *program.Program
	buf  bytes.Buffer
	gap  uint64 // uninteresting instructions since the last event

	// lastDest[p] is 1 + the step index of the most recent compare that
	// renames predicate p (a compare listing p as a destination whose
	// qualifying predicate was true, or an unc compare, which writes its
	// destinations even when nullified); 0 means never.
	lastDest [isa.NumPred]uint64
	step     uint64

	condBranches uint64
	compares     uint64
}

func (r *recorder) event(kind byte) {
	putUvarint(&r.buf, r.gap)
	r.gap = 0
	r.buf.WriteByte(kind)
}

func (r *recorder) observe(info emulator.StepInfo) {
	in := r.prog.At(info.PC)
	switch {
	case info.Op == isa.OpHalt:
		r.event(EvHalt)
		putUvarint(&r.buf, uint64(info.PC))
	case info.IsCmp:
		kind := byte(EvCompare)
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
		r.compares++
		// Renaming view: a compare claims its destinations when it is
		// not nullified, and unconditionally for unc compares (which
		// clear their destinations even under a false guard).
		if info.QPTrue || in.CType == isa.CmpUnc {
			if in.P1 != isa.P0 {
				r.lastDest[in.P1] = r.step + 1
			}
			if in.P2 != isa.P0 {
				r.lastDest[in.P2] = r.step + 1
			}
		}
	case info.IsBranch:
		switch in.Op {
		case isa.OpCall:
			r.event(EvCall)
			putUvarint(&r.buf, uint64(info.PC))
		case isa.OpRet, isa.OpBrInd:
			kind := byte(EvRet)
			if in.Op == isa.OpBrInd {
				kind = EvBrInd
			}
			if info.Taken {
				kind |= flagTaken
			}
			r.event(kind)
			putUvarint(&r.buf, uint64(info.PC))
			putUvarint(&r.buf, uint64(info.Target))
		case isa.OpBr:
			if !in.IsConditional() {
				// Unconditional direct: predictor-invisible, but still a
				// committed instruction for distance accounting.
				r.gap++
				r.step++
				return
			}
			kind := byte(EvCondBr)
			if info.Taken {
				kind |= flagTaken
			}
			last := r.lastDest[in.QP]
			if last > 0 {
				kind |= fBrProducer
			}
			r.event(kind)
			putUvarint(&r.buf, uint64(info.PC))
			r.buf.WriteByte(byte(in.QP))
			if last > 0 {
				putUvarint(&r.buf, r.step-(last-1))
			}
			r.condBranches++
		}
	default:
		r.gap++
	}
	r.step++
}

// Record runs the program on the functional emulator and returns its
// committed-stream trace. It checks ctx between step slices, so a
// long recording is promptly cancellable.
func Record(ctx context.Context, p *program.Program, opt Options) (*Trace, error) {
	rec := &recorder{prog: p}
	em := emulator.New(p)
	em.StepHook = rec.observe
	for !em.Halted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := uint64(recordChunk)
		if opt.MaxSteps > 0 {
			left := opt.MaxSteps - em.Steps
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
	// Flush the trailing gap so replay accounts for every instruction.
	if rec.gap > 0 {
		rec.event(EvMarker)
		putUvarint(&rec.buf, MarkerEnd)
		putUvarint(&rec.buf, 0)
	}
	t := &Trace{
		ProgHash:     HashProgram(p),
		Cap:          opt.MaxSteps,
		Steps:        em.Steps,
		Halted:       em.Halted,
		CondBranches: rec.condBranches,
		Compares:     rec.compares,
		Events:       rec.buf.Bytes(),
	}
	recordings.Inc()
	return t, nil
}
