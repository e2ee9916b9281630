package sim

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// convertedHashes pins trace.HashProgram of the 22 suite benchmarks'
// if-converted binaries at DefaultProfileSteps: converting on first use
// must build the very binaries that preparing the whole workload up
// front built.
var convertedHashes = map[string]uint64{
	"gzip": 0x49f24241fad1e449, "vpr": 0xdabde02dd7832912, "gcc": 0x3eaaeaf8d9fe10f6,
	"mcf": 0xc5952f03dfe690b5, "crafty": 0x8e48cf49f14bed9c, "parser": 0xe479ed34af7ecbad,
	"perlbmk": 0xa984937750ba5898, "gap": 0x42ddb998d6cd6b80, "vortex": 0xdf8854e33783df79,
	"bzip2": 0xd9ecb295a28d736f, "twolf": 0xb432f2f2478d4bf3, "wupwise": 0x1e0c85ceffeb5c26,
	"swim": 0x581bcaadc47c3b96, "mgrid": 0x319d0eeedbbe719d, "applu": 0xa3ab7aa33b753636,
	"mesa": 0x38bfff3b9fb7ff32, "galgel": 0x12606334cf4afc61, "art": 0x41b3a35b59cd453f,
	"equake": 0xdf0497c8981d0cf0, "facerec": 0xe300aa2d82d2e6cc, "ammp": 0xfec96e0c246ebb96,
	"lucas": 0xc3a35bcd4f0e2d32,
}

func conversions() uint64 { return ProcessMetrics().CounterValue("prepare.conversions") }

// TestIfConversionOnFirstUse pins when the workload profiles and
// if-converts: never for a plain experiment or sweep, once per
// benchmark when the first if-converted experiment starts, and never
// again for a later one or for a subset of the workload.
func TestIfConversionOnFirstUse(t *testing.T) {
	start := conversions()
	wl := PrepareEntries(t, DefaultProfileSteps)
	dir := t.TempDir()
	run := func(ifConverted bool, w *Workload, opts ...Option) {
		t.Helper()
		exp, err := New(append([]Option{WithWorkload(w), WithSchemes("predpred"), WithCommits(2000),
			WithMode(ModeTrace), WithTraceDir(dir), WithIfConversion(ifConverted)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Bench, r.Err)
			}
		}
	}
	converted := func(when string, want uint64) {
		t.Helper()
		if got := conversions() - start; got != want {
			t.Fatalf("%s: %d conversions, want %d", when, got, want)
		}
	}

	run(false, wl)
	run(false, wl, WithAxis("mispredict.penalty", 5, 10))
	converted("after a plain experiment and a plain sweep", 0)
	for _, pg := range wl.progs {
		if pg.Converted.Prog != nil {
			t.Fatalf("%s has an if-converted binary no experiment read", pg.Spec.Name)
		}
	}

	run(true, wl)
	converted("after the first if-converted experiment", 22)
	for _, pg := range wl.progs {
		if got, want := trace.HashProgram(pg.Converted.Prog), convertedHashes[pg.Spec.Name]; got != want {
			t.Errorf("%s: if-converted binary hashes to %#016x, want %#016x", pg.Spec.Name, got, want)
		}
	}
	sub, err := wl.Subset("gzip", "vpr", "twolf", "parser", "swim", "mesa")
	if err != nil {
		t.Fatal(err)
	}
	run(true, sub)
	run(true, wl, WithSchemes("conventional"))
	converted("after an ablation subset and a second if-converted experiment", 22)
}

// TestIfConversionErrorsFromStart checks that an if-converted
// experiment's Start returns a conversion's error before running
// anything, and that a cancelled conversion is not kept: the next Start
// converts, and a subset taken before it sees the binary.
func TestIfConversionErrorsFromStart(t *testing.T) {
	start := conversions()
	wl := PrepareEntries(t, 50000, "gzip")
	sub, err := wl.Subset("gzip")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := New(WithWorkload(wl), WithSchemes("predpred"), WithCommits(2000), WithMode(ModeTrace),
		WithTraceDir(t.TempDir()), WithIfConversion(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := exp.Start(ctx); err == nil || r != nil {
		t.Fatalf("Start under a cancelled context: runner %v, err %v; want only an error", r, err)
	}
	if n := conversions() - start; n != 0 || sub.progs[0].Converted.Prog != nil {
		t.Fatalf("a cancelled Start converted %d benchmarks", n)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := conversions() - start; n != 1 || sub.progs[0].Converted.Prog == nil {
		t.Fatalf("the Start after a cancelled one converted %d benchmarks, want 1 shared with the subset", n)
	}
}

// TestIfConversionConcurrentStarts starts if-converted experiments on
// a workload and on its subset at once: each benchmark is still
// converted exactly once, and every experiment sees the binaries.
func TestIfConversionConcurrentStarts(t *testing.T) {
	start := conversions()
	wl := PrepareEntries(t, 50000, "gzip", "vpr")
	sub, err := wl.Subset("vpr")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	errs := make(chan error, 4)
	for _, w := range []*Workload{wl, sub, wl, sub} {
		go func() {
			exp, err := New(WithWorkload(w), WithSchemes("predpred"), WithCommits(2000), WithMode(ModeTrace),
				WithTraceDir(dir), WithIfConversion(true))
			if err == nil {
				_, err = exp.Run(context.Background())
			}
			errs <- err
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := conversions() - start; n != 2 {
		t.Fatalf("4 concurrent if-converted experiments converted %d benchmarks, want 2", n)
	}
}

// TestPrepareBuildsBothBinaries checks the two binary sets of §4.1 an
// if-converted experiment leaves on its workload: every benchmark keeps
// its plain binary and gains an if-converted one with fewer conditional
// branches.
func TestPrepareBuildsBothBinaries(t *testing.T) {
	wl := PrepareEntries(t, 100000, "gzip", "vpr", "twolf", "swim")
	exp, err := New(WithWorkload(wl), WithSchemes("predpred"), WithCommits(2000), WithMode(ModeTrace),
		WithTraceDir(t.TempDir()), WithIfConversion(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, pg := range wl.progs {
		if pg.Plain.Prog == nil || pg.Converted.Prog == nil {
			t.Fatalf("%s: missing binaries", pg.Spec.Name)
		}
		before, after := pg.Plain.Prog.Summarize(), pg.Converted.Prog.Summarize()
		if after.CondBr >= before.CondBr {
			t.Errorf("%s: if-conversion did not remove branches (%d -> %d)",
				pg.Spec.Name, before.CondBr, after.CondBr)
		}
	}
}
