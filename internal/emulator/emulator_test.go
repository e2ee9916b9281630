package emulator

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/program"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read64(0x1000) != 0 {
		t.Error("uninitialized memory must read zero")
	}
	m.Write64(0x1000, 0xdeadbeefcafe1234)
	if got := m.Read64(0x1000); got != 0xdeadbeefcafe1234 {
		t.Errorf("Read64 = %#x", got)
	}
	// Cross-page unaligned access.
	addr := uint64(2*pageSize - 3)
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page Read64 = %#x", got)
	}
	m.Write8(0x55, 0xab)
	if m.Read8(0x55) != 0xab {
		t.Error("Read8 mismatch")
	}
}

// memOp is one access of a random sequence over a few pages.
type memOp struct {
	Write, Wide bool // a write rather than a read; 64-bit rather than 8-bit
	Page        uint8
	Off         uint16
	Straddle    bool // place the access in the last 7 bytes of its page
	Val         uint64
}

// memPages are the pages memOp sequences touch: neighbours (so a 64-bit
// access straddles into the next page) and far ones.
var memPages = [...]uint64{0, 1, 2, 7, 1 << 20}

func (o memOp) addr() uint64 {
	base := memPages[int(o.Page)%len(memPages)] << pageBits
	if o.Straddle {
		return base + pageSize - 7 + uint64(o.Off)%7
	}
	return base + uint64(o.Off)%pageSize
}

// refMemory is the map-only reference a Memory must match.
type refMemory map[uint64]byte

func (r refMemory) read64(addr uint64) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(r[addr+uint64(i)])
	}
	return v
}

func (r refMemory) write64(addr, v uint64) {
	for i := uint64(0); i < 8; i++ {
		r[addr+i] = byte(v >> (8 * i))
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr &= 0xffffff // keep footprint bounded
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	// Interleaved reads and writes of both widths across pages, many
	// straddling a page boundary, must read what the map-only
	// reference holds, whichever page the last access left cached.
	interleaved := func(ops []memOp) bool {
		m, ref := NewMemory(), refMemory{}
		for _, o := range ops {
			a := o.addr()
			switch {
			case o.Write && o.Wide:
				m.Write64(a, o.Val)
				ref.write64(a, o.Val)
			case o.Write:
				m.Write8(a, byte(o.Val))
				ref[a] = byte(o.Val)
			case o.Wide:
				if m.Read64(a) != ref.read64(a) {
					return false
				}
			default:
				if m.Read8(a) != ref[a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(interleaved, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	// A read of an untouched page right after a write elsewhere reads
	// zero, and leaves the written page readable; a straddling write
	// into an untouched page is seen from both pages.
	m = NewMemory()
	ref := refMemory{}
	const a, b, c = 3 * pageSize, 9 * pageSize, 12*pageSize - 4
	for _, step := range []func(){
		func() { m.Write64(a+16, 0x1122334455667788); ref.write64(a+16, 0x1122334455667788) },
		func() {},
		func() { m.Write64(c, 0xa1a2a3a4a5a6a7a8); ref.write64(c, 0xa1a2a3a4a5a6a7a8) },
		func() { m.Write8(b+5, 0x5a); ref[b+5] = 0x5a },
	} {
		step()
		for _, addr := range []uint64{b, a + 16, b + 5, c, c + 4, 12 * pageSize, a + 16} {
			if got, want := m.Read64(addr), ref.read64(addr); got != want {
				t.Fatalf("Read64(%#x) = %#x, want %#x", addr, got, want)
			}
			if got, want := m.Read8(addr), ref[addr]; got != want {
				t.Fatalf("Read8(%#x) = %#x, want %#x", addr, got, want)
			}
		}
	}
	if m.Footprint() != 4 {
		t.Fatalf("footprint %d pages, want 4 (reads must not allocate)", m.Footprint())
	}
}

func TestSimpleArithmetic(t *testing.T) {
	b := program.NewBuilder("arith")
	b.MovI(1, 7).MovI(2, 5).
		Add(3, 1, 2).  // r3 = 12
		Sub(4, 1, 2).  // r4 = 2
		Mul(5, 1, 2).  // r5 = 35
		Div(6, 1, 2).  // r6 = 1
		Xor(7, 1, 2).  // r7 = 2
		ShlI(8, 1, 2). // r8 = 28
		Halt()
	e := New(b.Program())
	e.Run(0)
	want := map[isa.Reg]int64{3: 12, 4: 2, 5: 35, 6: 1, 7: 2, 8: 28}
	for r, v := range want {
		if got := e.State.GPR[r]; got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestDivByZero(t *testing.T) {
	b := program.NewBuilder("div0")
	b.MovI(1, 7).Div(2, 1, 0).Halt()
	e := New(b.Program())
	e.Run(0)
	if e.State.GPR[2] != -1 {
		t.Errorf("div by zero = %d, want -1", e.State.GPR[2])
	}
}

func TestR0HardwiredZero(t *testing.T) {
	b := program.NewBuilder("r0")
	b.MovI(0, 99).Add(1, 0, 0).Halt()
	e := New(b.Program())
	e.Run(0)
	if e.State.GPR[1] != 0 {
		t.Errorf("r0 leaked a write: r1 = %d", e.State.GPR[1])
	}
}

func TestPredicationNullifies(t *testing.T) {
	b := program.NewBuilder("pred")
	b.MovI(1, 1).
		CmpI(isa.RelEQ, isa.CmpUnc, 1, 2, 1, 1). // p1=true, p2=false
		G(1).MovI(10, 111).                      // executes
		G(2).MovI(11, 222).                      // nullified
		Halt()
	e := New(b.Program())
	e.Run(0)
	if e.State.GPR[10] != 111 {
		t.Errorf("guarded-true mov skipped: r10 = %d", e.State.GPR[10])
	}
	if e.State.GPR[11] != 0 {
		t.Errorf("guarded-false mov executed: r11 = %d", e.State.GPR[11])
	}
}

func TestP0AlwaysTrue(t *testing.T) {
	s := NewState()
	s.WritePred(isa.P0, false) // must be discarded
	if !s.ReadPred(isa.P0) {
		t.Error("p0 must always read true")
	}
}

func TestLoopAndBranch(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	b := program.NewBuilder("loop")
	b.MovI(1, 10). // counter
			MovI(2, 0). // acc
			Label("top").
			Add(2, 2, 1).
			SubI(1, 1, 1).
			CmpI(isa.RelGT, isa.CmpUnc, 3, 4, 1, 0).
			G(3).Br("top").
			Halt()
	e := New(b.Program())
	e.Run(0)
	if e.State.GPR[2] != 55 {
		t.Errorf("sum = %d, want 55", e.State.GPR[2])
	}
}

func TestCallRet(t *testing.T) {
	b := program.NewBuilder("call")
	b.MovI(1, 5).
		Call(31, "double"). // r31 = return address
		Mov(3, 2).
		Halt().
		Label("double").
		Add(2, 1, 1).
		Ret(31)
	e := New(b.Program())
	e.Run(0)
	if e.State.GPR[3] != 10 {
		t.Errorf("call/ret result = %d, want 10", e.State.GPR[3])
	}
}

func TestLoadStore(t *testing.T) {
	b := program.NewBuilder("mem")
	b.MovI(1, 0x2000).
		MovI(2, 42).
		Store(1, 8, 2).
		Load(3, 1, 8).
		Halt()
	e := New(b.Program())
	e.Run(0)
	if e.State.GPR[3] != 42 {
		t.Errorf("load = %d, want 42", e.State.GPR[3])
	}
}

func TestFloatingPoint(t *testing.T) {
	b := program.NewBuilder("fp")
	b.FMovI(1, 1.5).FMovI(2, 2.5).
		FAdd(3, 1, 2).
		FMul(4, 1, 2).
		FCmp(isa.RelLT, isa.CmpUnc, 1, 2, 1, 2). // 1.5 < 2.5 -> p1
		FCvtFI(5, 3).
		Halt()
	e := New(b.Program())
	e.Run(0)
	if e.State.FPR[3] != 4.0 {
		t.Errorf("fadd = %v, want 4.0", e.State.FPR[3])
	}
	if e.State.FPR[4] != 3.75 {
		t.Errorf("fmul = %v, want 3.75", e.State.FPR[4])
	}
	if !e.State.Pred[1] || e.State.Pred[2] {
		t.Errorf("fcmp preds = %v,%v", e.State.Pred[1], e.State.Pred[2])
	}
	if e.State.GPR[5] != 4 {
		t.Errorf("fcvt.fi = %d, want 4", e.State.GPR[5])
	}
}

func TestCmpAndOrChains(t *testing.T) {
	// p1 starts true via cmp.unc; cmp.and clears it when a second
	// condition is false; cmp.or sets p5 when any condition holds.
	b := program.NewBuilder("chains")
	b.MovI(1, 3).MovI(2, 4).
		CmpI(isa.RelEQ, isa.CmpUnc, 3, 4, 1, 3). // p3 = true
		Cmp(isa.RelEQ, isa.CmpAnd, 3, 4, 1, 2).  // 3 != 4 -> clears p3, p4
		CmpI(isa.RelEQ, isa.CmpUnc, 5, 6, 1, 9). // p5 = false, p6 = true
		CmpI(isa.RelEQ, isa.CmpOr, 5, 7, 2, 4).  // 4 == 4 -> sets p5, p7
		Halt()
	e := New(b.Program())
	e.Run(0)
	if e.State.Pred[3] || e.State.Pred[4] {
		t.Errorf("cmp.and should clear p3,p4: %v %v", e.State.Pred[3], e.State.Pred[4])
	}
	if !e.State.Pred[5] || !e.State.Pred[7] {
		t.Errorf("cmp.or should set p5,p7: %v %v", e.State.Pred[5], e.State.Pred[7])
	}
}

func TestGuardedCompareUncClears(t *testing.T) {
	// A nullified unc compare still clears both destinations.
	b := program.NewBuilder("guardedcmp")
	b.CmpI(isa.RelEQ, isa.CmpUnc, 1, 2, 0, 0). // p1 = true (0==0), p2 = false
							CmpI(isa.RelEQ, isa.CmpUnc, 3, 4, 0, 0).      // p3 = true
							G(2).CmpI(isa.RelEQ, isa.CmpUnc, 3, 1, 0, 0). // qp=false: clears p3 but NOT p1 (p1 is 2nd dest)
							Halt()
	e := New(b.Program())
	e.Run(0)
	if e.State.Pred[3] {
		t.Error("nullified unc compare must clear its first destination")
	}
	if e.State.Pred[1] {
		t.Error("nullified unc compare must clear its second destination")
	}
}

func TestHaltStopsExecution(t *testing.T) {
	b := program.NewBuilder("halt")
	b.MovI(1, 1).Halt().MovI(1, 2).Halt()
	e := New(b.Program())
	n := e.Run(0)
	if !e.Halted {
		t.Fatal("not halted")
	}
	if e.State.GPR[1] != 1 {
		t.Errorf("executed past halt: r1 = %d", e.State.GPR[1])
	}
	if n != 2 {
		t.Errorf("steps = %d, want 2", n)
	}
	// Step after halt is a no-op.
	info := e.Step()
	if !info.Halted {
		t.Error("step after halt must report halted")
	}
}

func TestStepInfoBranch(t *testing.T) {
	b := program.NewBuilder("stepinfo")
	b.CmpI(isa.RelEQ, isa.CmpUnc, 1, 2, 0, 0). // p1=true
							G(1).Br("out").
							MovI(5, 1).
							Label("out").Halt()
	e := New(b.Program())
	i1 := e.Step()
	if !i1.IsCmp || !i1.Cond {
		t.Errorf("cmp step info wrong: %+v", i1)
	}
	i2 := e.Step()
	if !i2.IsBranch || !i2.Taken || i2.Target != 3 {
		t.Errorf("branch step info wrong: %+v", i2)
	}
	if e.State.PC != 3 {
		t.Errorf("pc = %d, want 3", e.State.PC)
	}
}

func TestRunBounded(t *testing.T) {
	b := program.NewBuilder("inf")
	b.Label("top").Br("top") // p0-guarded: infinite loop
	// Builder validation requires halt or unconditional br at end; this
	// ends with an unconditional br, so it is valid.
	e := New(b.Program())
	n := e.Run(1000)
	if n != 1000 || e.Halted {
		t.Errorf("bounded run: n=%d halted=%v", n, e.Halted)
	}
}
