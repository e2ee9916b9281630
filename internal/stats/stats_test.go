package stats

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/ifconvert"
	"repro/internal/pipeline"
	"repro/internal/program"
)

// binaries is one benchmark's two binary sets of §4.1.
type binaries struct {
	Spec             bench.Spec
	Plain, Converted *program.Program
}

// buildBoth builds each spec's plain binary and its if-converted one,
// profiled for profileSteps emulator steps, as repro/sim does when an
// if-converted experiment first reads a workload.
func buildBoth(t testing.TB, specs []bench.Spec, profileSteps uint64) []binaries {
	t.Helper()
	out := make([]binaries, len(specs))
	for i, s := range specs {
		plain := bench.Build(s)
		res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, profileSteps)))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		out[i] = binaries{Spec: s, Plain: plain, Converted: res.Prog}
	}
	return out
}

// gzip builds gzip's two binaries.
func gzip(t *testing.T) binaries {
	t.Helper()
	s, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	return buildBoth(t, []bench.Spec{s}, 100000)[0]
}

func TestSimulateMutatedConfig(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemePredicate)
	cfg.DisableGHRRepair = true
	st, err := Simulate(cfg, gzip(t).Converted, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed == 0 {
		t.Error("no instructions committed")
	}
}

func TestSimulateErrorsOnBadConfig(t *testing.T) {
	cfg := config.Default()
	cfg.ROBEntries = 1
	if _, err := Simulate(cfg, gzip(t).Plain, 100); err == nil {
		t.Fatal("expected config validation error")
	}
}

func TestSimulateContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := config.Default().WithScheme(config.SchemePredicate)
	pl, err := SimulateContext(ctx, new(pipeline.Pipeline), cfg, gzip(t).Plain, 1<<40)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pl == nil {
		t.Fatal("expected partial pipeline state on cancellation")
	}
}
