package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
)

// knobCommits is the knob guard's commit budget: past the suite's
// ~30k-instruction prologue, where the predictors differ.
const knobCommits = 60000

// callsAsm nests calls four deep in a loop. No generated benchmark
// emits a call or a return, so this is the program that exercises the
// return address stack.
const callsAsm = `
  movi r1 = 0
loop:
  call r31 = f1
  addi r1 = r1, 1
  cmpi.lt.unc p1, p2 = r1, 100000
  (p1) br loop
  halt
f1:
  call r30 = f2
  ret r31
f2:
  call r29 = f3
  ret r30
f3:
  call r28 = f4
  ret r29
f4:
  ret r28
`

// knobProbe is the run in which a knob's value must move the model: a
// non-default value, the scheme and the program it is run on.
type knobProbe struct {
	value, scheme, program string
}

// knobProbes names one probe per registered knob. A knob without an
// entry fails TestEveryKnobMovesTheModel: a knob is added together with
// the run that shows it does something.
var knobProbes = map[string]knobProbe{
	"pvt.entries":        {"256", "predpred", "gzip+ifc"},
	"pred.bytes":         {"75776", "conventional", "gzip"},
	"pred.ghrbits":       {"20", "conventional", "gzip"},
	"pred.lhrbits":       {"4", "conventional", "gzip"},
	"pred.lhtbits":       {"6", "conventional", "gzip"},
	"conf.bits":          {"1", "predpred", "gzip+ifc"},
	"gshare.idxbits":     {"10", "conventional", "gzip"},
	"mispredict.penalty": {"20", "conventional", "gzip"},
	"rob.entries":        {"64", "conventional", "gzip"},
	"ras.entries":        {"2", "conventional", "calls"},
	"pvt.split":          {"true", "predpred", "gzip+ifc"},
	"ghr.repair":         {"false", "predpred", "gzip+ifc"},
	"predication":        {"select", "predpred", "gzip+ifc"},
}

// TestEveryKnobMovesTheModel runs each registered knob at a non-default
// value on the cycle model and requires some field of Stats or
// MemStats to differ from the run at the default configuration. A knob
// that moves no number sweeps a flat curve the model never computed.
func TestEveryKnobMovesTheModel(t *testing.T) {
	gzip, err := BuildBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	conv, err := IfConvert(gzip, DefaultIfConvertOptions(ProfileProgram(gzip, DefaultProfileSteps)))
	if err != nil {
		t.Fatal(err)
	}
	calls, err := Assemble("calls", callsAsm)
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]*Workload{}
	for name, p := range map[string]*Program{"gzip": gzip, "gzip+ifc": conv.Prog, "calls": calls} {
		if programs[name], err = PreparePrograms([]*Program{p}); err != nil {
			t.Fatal(err)
		}
	}

	run := func(program, scheme string, mutate func(*Config)) Result {
		t.Helper()
		exp, err := New(WithWorkload(programs[program]), WithSchemes(scheme),
			WithCommits(knobCommits), WithConfigMutator(mutate))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err == nil {
			err = rs[0].Err
		}
		if err != nil {
			t.Fatalf("%s/%s: %v", program, scheme, err)
		}
		return rs[0]
	}
	defaults := map[[2]string]Result{}
	for _, name := range config.MutatorNames() {
		p, ok := knobProbes[name]
		if !ok {
			t.Errorf("knob %s has no probe: add the run in which it moves the model", name)
			continue
		}
		base, err := schemeConfig(p.scheme)
		if err != nil {
			t.Fatal(err)
		}
		set := base
		if err := config.Set(&set, name, p.value); err != nil {
			t.Fatalf("%s=%s: %v", name, p.value, err)
		}
		if set == base {
			t.Errorf("%s=%s is the %s default: probe a value that changes the configuration", name, p.value, p.scheme)
			continue
		}
		key := [2]string{p.program, p.scheme}
		if _, ok := defaults[key]; !ok {
			defaults[key] = run(p.program, p.scheme, nil)
		}
		got := run(p.program, p.scheme, func(c *Config) {
			if err := config.Set(c, name, p.value); err != nil {
				t.Errorf("%s=%s: %v", name, p.value, err)
			}
		})
		def := defaults[key]
		if reflect.DeepEqual(got.Stats, def.Stats) && got.Mem == def.Mem {
			t.Errorf("%s=%s on %s/%s moves no field of Stats or MemStats", name, p.value, p.program, p.scheme)
		}
	}
}
