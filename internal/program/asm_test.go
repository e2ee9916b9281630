package program

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestAssembleBasics(t *testing.T) {
	src := `
; sum 1..10
  movi r1 = 10     # counter
  movi r2 = 0
top:
  add r2 = r2, r1
  subi r1 = r1, 1
  cmpi.gt.unc p3, p4 = r1, 0
  (p3) br top
  halt
`
	p, err := Assemble("sum", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 7 {
		t.Fatalf("len = %d, want 7", p.Len())
	}
	br := p.At(5)
	if br.Op != isa.OpBr || br.QP != 3 || br.Target != 2 {
		t.Errorf("branch parsed wrong: %+v", br)
	}
	cmp := p.At(4)
	if cmp.Op != isa.OpCmpI || cmp.Rel != isa.RelGT || cmp.CType != isa.CmpUnc ||
		cmp.P1 != 3 || cmp.P2 != 4 || cmp.Imm != 0 {
		t.Errorf("compare parsed wrong: %+v", cmp)
	}
}

func TestAssembleMemoryAndFP(t *testing.T) {
	src := `
  movi r1 = 4096
  movi r2 = 7
  st [r1+8] = r2
  ld r3 = [r1+8]
  fmovi f1 = 2.5
  fadd f2 = f1, f1
  fst [r1+16] = f2
  fld f3 = [r1+16]
  fcmp.lt.unc p5, p6 = f1, f2
  (p5) fmov f4 = f2
  halt
`
	p, err := Assemble("memfp", src)
	if err != nil {
		t.Fatal(err)
	}
	st := p.At(2)
	if st.Op != isa.OpStore || st.Rs1 != 1 || st.Imm != 8 || st.Rs2 != 2 {
		t.Errorf("store parsed wrong: %+v", st)
	}
	fm := p.At(4)
	if fm.Op != isa.OpFMovI {
		t.Errorf("fmovi parsed wrong: %+v", fm)
	}
	guarded := p.At(9)
	if guarded.QP != 5 || guarded.Op != isa.OpFMov {
		t.Errorf("guarded fmov parsed wrong: %+v", guarded)
	}
}

func TestAssembleCallRet(t *testing.T) {
	src := `
  call r31 = fn
  halt
fn:
  ret r31
`
	p, err := Assemble("call", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0).Op != isa.OpCall || p.At(0).Rd != 31 || p.At(0).Target != 2 {
		t.Errorf("call parsed wrong: %+v", p.At(0))
	}
	if p.At(2).Op != isa.OpRet || p.At(2).Rs1 != 31 {
		t.Errorf("ret parsed wrong: %+v", p.At(2))
	}
}

func TestAssembleAbsoluteTarget(t *testing.T) {
	p, err := Assemble("abs", "br @1\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0).Target != 1 {
		t.Errorf("absolute target = %d", p.At(0).Target)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1 = r2\nhalt",            // unknown mnemonic
		"movi r1\nhalt",                  // missing =
		"ld r1 = r2\nhalt",               // bad memory operand
		"cmp.xx.unc p1,p2 = r1,r2\nhalt", // bad relation
		"cmpi.eq p1 = r1,0\nhalt",        // one predicate destination
		"(p1 br top\nhalt",               // unterminated guard
		"br nowhere\nhalt",               // undefined label
		"movi r999 = 0\nhalt",            // bad register
		"add r1 = r2, r3, r4\nhalt",      // too many operands
		"mov r1 = 1\nhalt",               // immediate where mov reads a register
		"add r1 = r2, 5\nhalt",           // immediate where add reads a register
		"movi r1 = r2\nhalt",             // register where movi reads an immediate
		"addi r1 = r2\nhalt",             // addi without its immediate
	}
	for _, src := range cases {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestAssembleEmptyMemRef is the regression test for a memory operand
// with no base register, which once panicked slicing the empty operand
// body instead of returning an error.
func TestAssembleEmptyMemRef(t *testing.T) {
	for _, src := range []string{"ld r1 = []\nhalt", "st [] = r1\nhalt", "fld f1 = []\nhalt"} {
		if _, err := Assemble("bad", src); err == nil || !strings.Contains(err.Error(), "base register") {
			t.Errorf("%q: want a missing-base-register error, got %v", src, err)
		}
	}
}

// TestAssembleDisassembleRoundTrip property: assembling the
// disassembly of a random program reproduces it instruction for
// instruction.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		checkRoundTrip(t, randomAsmProgram(rng))
	}
}

// FuzzAssemble feeds arbitrary text to the assembler, the input
// predsim -asm reads. It must return a program or an error, never
// panic, and a program it accepts must survive the disassembly round
// trip. Seeds live in testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		checkRoundTrip(t, p)
	})
}

// checkRoundTrip assembles orig's disassembly, index column stripped,
// and fails t unless it reproduces orig instruction for instruction.
func checkRoundTrip(t *testing.T, orig *Program) {
	t.Helper()
	var clean strings.Builder
	for _, line := range strings.Split(orig.Disassemble(), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasSuffix(trimmed, ":") {
			clean.WriteString(trimmed + "\n")
			continue
		}
		fields := strings.SplitN(trimmed, "  ", 2)
		if len(fields) == 2 {
			clean.WriteString(strings.TrimSpace(fields[1]) + "\n")
		}
	}
	back, err := Assemble(orig.Name, clean.String())
	if err != nil {
		t.Fatalf("%v\nsource:\n%s", err, clean.String())
	}
	if back.Len() != orig.Len() {
		t.Fatalf("length %d -> %d\nsource:\n%s", orig.Len(), back.Len(), clean.String())
	}
	for i := range orig.Insts {
		a, b := orig.Insts[i], back.Insts[i]
		b.Label = a.Label // labels are resolved; compare semantics only
		if a != b {
			t.Fatalf("@%d: %s != %s", i, a.String(), b.String())
		}
	}
}

// randomAsmProgram builds a random straight-line-with-branches program
// covering the assembler's surface.
func randomAsmProgram(rng *rand.Rand) *Program {
	b := NewBuilder("roundtrip")
	b.Label("entry")
	n := rng.Intn(20) + 10
	for i := 0; i < n; i++ {
		r1 := isa.Reg(rng.Intn(30) + 1)
		r2 := isa.Reg(rng.Intn(30) + 1)
		r3 := isa.Reg(rng.Intn(30) + 1)
		switch rng.Intn(10) {
		case 0:
			b.Add(r1, r2, r3)
		case 1:
			b.AddI(r1, r2, int64(rng.Intn(100)-50))
		case 2:
			b.MovI(r1, int64(rng.Intn(1000)))
		case 3:
			b.Load(r1, r2, int64(rng.Intn(64)*8))
		case 4:
			b.Store(r2, int64(rng.Intn(64)*8), r3)
		case 5:
			b.Cmp(isa.Rel(rng.Intn(8)), isa.CmpUnc, isa.PredReg(rng.Intn(20)+1), isa.PredReg(rng.Intn(20)+30), r1, r2)
		case 6:
			b.CmpI(isa.Rel(rng.Intn(8)), isa.CmpNorm, isa.PredReg(rng.Intn(20)+1), isa.PredReg(rng.Intn(20)+30), r1, int64(rng.Intn(50)))
		case 7:
			b.FAdd(r1, r2, r3)
		case 8:
			b.G(isa.PredReg(rng.Intn(20)+1)).MovI(r1, int64(rng.Intn(10)))
		case 9:
			b.Xor(r1, r2, r3)
		}
	}
	b.G(isa.PredReg(rng.Intn(20) + 1)).Br("entry")
	b.Halt()
	return b.Program()
}
