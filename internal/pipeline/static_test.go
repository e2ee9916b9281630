package pipeline

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

// TestPredecodeParity pins the predecode that replaced the per-uop
// isa.Inst calls: for every opcode, guarded and unguarded, with r0 and
// a real destination, the static record must agree with each predicate,
// the latency, the issue class and the source lists.
func TestPredecodeParity(t *testing.T) {
	for op := isa.OpNop; op <= isa.OpHalt; op++ {
		for _, qp := range []isa.PredReg{isa.P0, 3} {
			for _, rd := range []isa.Reg{isa.R0, 5} {
				in := &isa.Inst{Op: op, QP: qp, Rd: rd, Rs1: 7, Rs2: 9, P1: 1, P2: 2, Target: 4}
				st := decode(in)
				for _, c := range []struct {
					name      string
					got, want bool
				}{
					{"IsCompare", st.isCompare, in.IsCompare()},
					{"IsBranch", st.isBranch, in.IsBranch()},
					{"IsConditional", st.isCond, in.IsConditional()},
					{"IsDirect", st.isDirect, in.IsDirect()},
					{"IsLoad", st.isLoad, in.IsLoad()},
					{"IsStore", st.isStore, in.IsStore()},
					{"WritesGPR", st.writesGPR, in.WritesGPR()},
					{"WritesFPR", st.writesFPR, in.WritesFPR()},
				} {
					if c.got != c.want {
						t.Errorf("%s: %s = %v, isa.Inst says %v", in, c.name, c.got, c.want)
					}
				}
				if int(st.lat) != in.Latency() {
					t.Errorf("%s: latency %d, isa.Inst says %d", in, st.lat, in.Latency())
				}
				if st.class != classify(in) {
					t.Errorf("%s: class %d, classify says %d", in, st.class, classify(in))
				}
				if got := st.regI[:st.nRegI]; !slices.Equal(got, in.GPRSources()) {
					t.Errorf("%s: GPR sources %v, isa.Inst says %v", in, got, in.GPRSources())
				}
				if got := st.regF[:st.nRegF]; !slices.Equal(got, in.FPRSources()) {
					t.Errorf("%s: FPR sources %v, isa.Inst says %v", in, got, in.FPRSources())
				}
			}
		}
	}
}
