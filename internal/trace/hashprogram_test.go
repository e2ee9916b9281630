package trace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// buildLoop assembles a two-instruction loop whose only difference
// across calls is the non-architectural metadata: the program name and
// the label spelling. Target resolution makes the instruction streams
// identical.
func buildLoop(t *testing.T, name, label string) *program.Program {
	t.Helper()
	p := program.New(name)
	p.Mark(label)
	p.Append(isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1})
	p.Append(isa.Inst{Op: isa.OpBr, Label: label})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	return p
}

// nonsemantic lists every field of program.Program and isa.Inst that
// HashProgram may skip, with the reason it cannot change replay. Any
// field not listed here must move the hash.
var nonsemantic = map[string]string{
	"Program.Name":   "display/diagnostic name; execution is fully determined by Insts",
	"Program.Labels": "assembly-time symbol table, folded into Inst.Target by Resolve before tracing",
	"Inst.Label":     "symbolic target before assembly, resolved into Target before any program is traced or hashed",
}

// TestHashProgramIgnoresNonsemanticFields: once Resolve has folded
// labels into Target, renaming the program and its labels cannot
// change replay, so it must not move the cache key, or every trace
// would be spuriously re-recorded.
func TestHashProgramIgnoresNonsemanticFields(t *testing.T) {
	base := buildLoop(t, "loop", "top")
	renamed := buildLoop(t, "loop-v2", "head")
	if base.Insts[1].Target != renamed.Insts[1].Target {
		t.Fatalf("resolution differs: %d vs %d", base.Insts[1].Target, renamed.Insts[1].Target)
	}
	if HashProgram(base) != HashProgram(renamed) {
		t.Error("renaming the program and its labels moved the hash; nonsemantic fields must not feed the cache key")
	}
}

// leaves lists the index paths of every non-struct field of t,
// descending into nested structs, so a field added anywhere in the
// type is picked up without editing the test.
func leaves(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(append([]int(nil), prefix...), i)
		if f := t.Field(i); f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(f.Type, path)...)
		} else {
			out = append(out, path)
		}
	}
	return out
}

// fieldName renders an index path as "Type.Field.Sub".
func fieldName(t reflect.Type, path []int) string {
	name := t.Name()
	for _, i := range path {
		f := t.Field(i)
		name += "." + f.Name
		t = f.Type
	}
	return name
}

// mutate moves v to a different value of its kind.
func mutate(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, v.Index(0)))
	case reflect.Map:
		v.SetMapIndex(reflect.ValueOf("extra"), reflect.Zero(v.Type().Elem()))
	default:
		t.Fatalf("%s: no mutation for kind %s; teach mutate one", name, v.Kind())
	}
}

// TestHashProgramSeesSemanticFields proves the trace cache key from the
// code: every field of program.Program and every leaf of each isa.Inst
// is mutated in turn, and the hash must move unless the field is listed
// in nonsemantic, in which case it must not. A field added to either
// type fails here until HashProgram hashes it or nonsemantic lists it
// with a reason; distinct programs would otherwise collide onto one
// cached trace.
func TestHashProgramSeesSemanticFields(t *testing.T) {
	base := buildLoop(t, "loop", "top")
	hash := HashProgram(base)
	seen := map[string]bool{}
	check := func(name, where string, p *program.Program) {
		seen[name] = true
		moved := HashProgram(p) != hash
		if reason, ok := nonsemantic[name]; ok && moved {
			t.Errorf("mutating %s%s moved the hash, but it is listed as nonsemantic (%s)", name, where, reason)
		} else if !ok && !moved {
			t.Errorf("mutating %s%s did not move the hash: hash it in HashProgram or list it in nonsemantic with a reason", name, where)
		}
	}

	pt := reflect.TypeOf(program.Program{})
	for i := 0; i < pt.NumField(); i++ {
		name := fieldName(pt, []int{i})
		p := buildLoop(t, "loop", "top")
		mutate(t, name, reflect.ValueOf(p).Elem().Field(i))
		check(name, "", p)
	}
	it := reflect.TypeOf(isa.Inst{})
	for _, path := range leaves(it, nil) {
		name := fieldName(it, path)
		for pc := range base.Insts {
			p := buildLoop(t, "loop", "top")
			mutate(t, name, reflect.ValueOf(&p.Insts[pc]).Elem().FieldByIndex(path))
			check(name, fmt.Sprintf(" of Insts[%d]", pc), p)
		}
	}
	for name := range nonsemantic {
		if !seen[name] {
			t.Errorf("nonsemantic lists %s, which is not a field of program.Program or isa.Inst", name)
		}
	}
}
