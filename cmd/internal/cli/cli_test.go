package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/sim"
)

func TestDefaultBudgets(t *testing.T) {
	for _, s := range []Settings{Experiments, Predsim, Sweep} {
		fs := flag.NewFlagSet(s.Name, flag.ContinueOnError)
		register(fs, s)
		for name, want := range map[string]uint64{"n": sim.DefaultCommits, "profile": sim.DefaultProfileSteps} {
			if got := fs.Lookup(name).DefValue; got != strconv.FormatUint(want, 10) {
				t.Errorf("%s -%s default = %s, want %d", s.Name, name, got, want)
			}
		}
		if got := fs.Lookup("mode").DefValue; got != s.Mode {
			t.Errorf("%s -mode default = %s, want %s", s.Name, got, s.Mode)
		}
		if (fs.Lookup("format") != nil) != (len(s.Formats) > 0) {
			t.Errorf("%s: -format registered = %v with formats %v", s.Name, fs.Lookup("format") != nil, s.Formats)
		}
	}
}

// countingSink records how often each result cell is emitted and how
// often the sink is closed.
type countingSink struct {
	emits  map[string]int
	closes int
}

func cell(r sim.Result) string { return fmt.Sprintf("%d/%s/%s", r.Point.Index, r.Bench, r.Scheme) }

func (s *countingSink) Emit(r sim.Result) error {
	s.emits[cell(r)]++
	return nil
}

func (s *countingSink) Close() error {
	s.closes++
	return nil
}

// testExperiment is a two-point trace-mode sweep over two benchmarks
// and two schemes: eight cells.
func testExperiment(t *testing.T) *sim.Experiment {
	t.Helper()
	specs, err := sim.SuiteSpecs("gzip", "vpr")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sim.PrepareSpecs(specs, 20000)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("conventional", "predpred"),
		sim.WithCommits(20000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(t.TempDir()),
		sim.WithAxis("pvt.entries", "512", "1024"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestDrainEmitsEachResultOnceAndClosesOnce(t *testing.T) {
	exp := testExperiment(t)
	sink := &countingSink{emits: map[string]int{}}
	c := &Command{ctx: context.Background(), sink: sink}
	// Two experiments into one sink, as cmd/experiments runs them.
	for round := 1; round <= 2; round++ {
		results, err := c.drain(exp)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 8 || len(sink.emits) != 8 {
			t.Fatalf("round %d: %d results, %d distinct cells emitted; want 8 and 8", round, len(results), len(sink.emits))
		}
		for i, r := range results {
			if n := sink.emits[cell(r)]; n != round {
				t.Errorf("round %d: %s emitted %d times, want %d", round, cell(r), n, round)
			}
			if i > 0 && (r.Point.Index < results[i-1].Point.Index ||
				r.Point.Index == results[i-1].Point.Index && r.Seq < results[i-1].Seq) {
				t.Errorf("results not in matrix order at %d", i)
			}
		}
	}
	// A fatal error after the runs closes the sink; the Finish that a
	// successful run ends with must not close it again.
	if err := c.closeSink(); err != nil {
		t.Fatal(err)
	}
	c.Finish()
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times, want 1", sink.closes)
	}
}

func TestDrainReturnsRunnerError(t *testing.T) {
	exp := testExperiment(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &countingSink{emits: map[string]int{}}
	c := &Command{ctx: ctx, sink: sink}
	results, err := c.drain(exp)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drain under a cancelled context: error %v, want context.Canceled", err)
	}
	if len(results) != len(sink.emits) {
		t.Errorf("%d results returned, %d cells emitted", len(results), len(sink.emits))
	}
	for _, r := range results {
		if n := sink.emits[cell(r)]; n != 1 {
			t.Errorf("%s emitted %d times, want 1", cell(r), n)
		}
	}
	if sink.closes != 0 {
		t.Errorf("drain closed the sink %d times; closing is the command's", sink.closes)
	}
}

// TestProfileHooks drives the four output flags through register,
// Start and Finish: each file must land, non-empty, in a directory that
// does not exist before the run.
func TestProfileHooks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "telemetry", "run")
	files := map[string]string{}
	var args []string
	for _, name := range []string{"cpuprofile", "memprofile", "metrics", "manifest"} {
		files[name] = filepath.Join(dir, name+".out")
		args = append(args, "-"+name, files[name])
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := register(fs, Experiments)
	if err := fs.Parse(append(args, "-mode", "trace", "-n", "20000", "-workload", "gzip")); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(c.Experiment(sim.WithWorkload(c.Prepare()), sim.WithSchemes("predpred"), sim.WithTraceDir(t.TempDir())))
	c.Finish()
	for name, path := range files {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("-%s file missing or empty: %v", name, err)
		}
	}
}
