package sim

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// convCounts is the process's conventional-predictor counters.
func convCounts() (runs, reuses uint64) {
	m := ProcessMetrics()
	return m.CounterValue("replay.conv.runs"), m.CounterValue("replay.conv.reuses")
}

// idealizeCfg is cmd/experiments' §4.2/§4.3 mutator.
func idealizeCfg(c *Config) { c.IdealNoAlias, c.IdealPerfectGHR = true, true }

// TestStoredOutcomesMatchReplay runs the trace cells of fig5,
// fig5ideal, fig6a and fig6ideal one after another on one Workload, as
// cmd/experiments does, and holds every cell to a direct stats.Replay
// of its configuration (which stores nothing). The workload's stored
// outcomes must let each binary's conventional predictor of a key run
// once: gcc's plain binary is one whose idealized table aliases its
// branches unlike the real one, so the idealized runs need a second
// predictor there and reuse the first everywhere else.
func TestStoredOutcomesMatchReplay(t *testing.T) {
	wl := memoWorkload(t, "gzip", "gcc")
	dir := t.TempDir()
	exps := []struct {
		tag     string
		schemes []string
		ifconv  bool
		mutate  func(*Config)
	}{
		{"fig5", []string{"conventional", "predpred"}, false, nil},
		{"fig5ideal", []string{"conventional", "predpred"}, false, idealizeCfg},
		{"fig6a", []string{"conventional", "predpred", "peppa"}, true, nil},
		{"fig6ideal", []string{"conventional", "predpred"}, true, idealizeCfg},
	}
	runs0, reuses0 := convCounts()
	var passKeys uint64                // conventional predictors the passes read
	distinct := map[string][][]int32{} // per binary: its distinct branch partitions
	for _, x := range exps {
		exp, err := New(WithWorkload(wl), WithTag(x.tag), WithSchemes(x.schemes...), WithIfConversion(x.ifconv),
			WithConfigMutator(x.mutate), WithCommits(memoCommits), WithMode(ModeTrace), WithTraceDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range wl.progs {
			bin, name := &pg.Plain, pg.Spec.Name
			if x.ifconv {
				bin, name = &pg.Converted, name+"/ifconv"
			}
			prog, tr := bin.Prog, bin.tr // the trace the experiment replayed
			var pass [][]int32
			for _, r := range rs {
				if r.Bench != pg.Spec.Name {
					continue
				}
				if r.Err != nil {
					t.Fatalf("%s %s/%s: %v", x.tag, r.Bench, r.Scheme, r.Err)
				}
				cfg, err := exp.cellConfig(r.Point, r.Scheme)
				if err != nil {
					t.Fatal(err)
				}
				want, err := stats.Replay(cfg, prog, tr, memoCommits)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r.Stats, want) {
					t.Errorf("%s %s/%s: stats differ from a direct replay:\n got: %+v\nwant: %+v", x.tag, r.Bench, r.Scheme, r.Stats, want)
				}
				if cfg.Scheme == config.SchemePEPPA {
					continue
				}
				branches, _ := stats.Partitions(cfg, prog)
				if !slices.ContainsFunc(pass, func(b []int32) bool { return slices.Equal(b, branches) }) {
					pass = append(pass, branches)
				}
				if !slices.ContainsFunc(distinct[name], func(b []int32) bool { return slices.Equal(b, branches) }) {
					distinct[name] = append(distinct[name], branches)
				}
			}
			passKeys += uint64(len(pass))
		}
	}
	var want uint64
	for _, parts := range distinct {
		want += uint64(len(parts))
	}
	if len(distinct["gcc"]) != 2 {
		t.Errorf("gcc's plain binary has %d distinct branch partitions over the four figures, want 2", len(distinct["gcc"]))
	}
	runs1, reuses1 := convCounts()
	if runs, reuses := runs1-runs0, reuses1-reuses0; runs != want || reuses != passKeys-want {
		t.Errorf("the four figures ran %d conventional predictors and reused %d, want %d and %d", runs, reuses, want, passKeys-want)
	}
}

// TestConcurrentChunksMatchReplay runs a plan of more than
// replayChunk configurations over one benchmark on two workers: its two
// chunks are two passes over the same binary, which can run at once,
// and every configuration reads the same conventional predictor (the
// predicate engines' shadow). Passes do not wait for each other's
// stored outcomes, so the two read the predictor twice between them,
// one or both running it; a rerun of the sweep must read it from the
// store in both passes, and every cell must match a direct replay.
func TestConcurrentChunksMatchReplay(t *testing.T) {
	wl := memoWorkload(t, "vpr")
	dir := t.TempDir()
	axes := []Option{
		WithAxis("conf.bits", 1, 2, 3, 4, 5, 6, 7, 8),
		WithAxis("ras.entries", 16, 32),
	}
	for i, wantRuns := range []string{"1 or 2", "0"} {
		runs0, reuses0 := convCounts()
		run := runMemoSweep(t, wl, dir, 2, []string{"predpred"}, axes...)
		runs1, reuses1 := convCounts()
		if len(run.rs) != 16 || run.misses != 16 {
			t.Fatalf("run %d: want 16 cells on 16 engines, got %d cells on %d", i, len(run.rs), run.misses)
		}
		runs, reuses := runs1-runs0, reuses1-reuses0
		if runs+reuses != 2 || (i == 0 && runs == 0) || (i == 1 && runs != 0) {
			t.Errorf("run %d: two passes over one binary ran %d conventional predictors and reused %d, want %s run of 2", i, runs, reuses, wantRuns)
		}
		checkAgainstReplay(t, wl, dir, run)
	}
}
