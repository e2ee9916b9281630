package core_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/ifconvert"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
)

// pvtLayouts are the predpred configurations of the three layouts of
// the split-PVT ablation: the shared table with two hash functions (the
// default), the statically split table, and the shared table at half
// the budget, which gives each hash the rows one split half has.
func pvtLayouts() []config.Config {
	shared := config.Default().WithScheme(config.SchemePredicate)
	split, half := shared, shared
	split.SplitPVT = true
	half.L2PredBytes /= 2
	return []config.Config{shared, split, half}
}

// p0Dests counts the compare destinations of p that write P0, whose
// rows §3.3 says a split table wastes.
func p0Dests(p *program.Program) int {
	n := 0
	for pc := 0; pc < p.Len(); pc++ {
		if in := p.At(pc); trace.KindOf(in) == trace.EvCompare {
			for _, d := range []isa.PredReg{in.P1, in.P2} {
				if d == isa.P0 {
					n++
				}
			}
		}
	}
	return n
}

// shared counts the destinations of an aliasing partition that share
// their row with another.
func shared(partition []int32) int {
	size := make([]int, len(partition))
	for _, f := range partition {
		size[f]++
	}
	n := 0
	for _, f := range partition {
		if size[f] > 1 {
			n++
		}
	}
	return n
}

// TestPVTLayoutSharing counts, for every suite binary (plain and
// if-converted), how many compare destinations share a PVT row under
// the shared, split and half-budget layouts (run with -v for the table
// EXPERIMENTS.md records), reading each layout's aliasing partition
// from stats.Partitions. Perceptron rows and confidence counters
// start out equal, so two layouts that alias the same destinations
// together predict alike: wherever two layouts' partitions coincide, a
// predpred replay gives the same predicate-predictor counters under
// both. Only the shadow conventional predictor, which pred.bytes also
// sizes, can tell the half-budget table from the split one.
func TestPVTLayoutSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares and replays the whole suite")
	}
	const commits = 60000
	suite := bench.Suite()
	cfgs := pvtLayouts()
	var table strings.Builder
	fmt.Fprintf(&table, "%-12s %6s %4s %7s %6s %5s %13s %11s\n", "binary", "dests", "p0", "shared", "split", "half", "shared~split", "split~half")
	var total [3]int
	var sharedSplit, sameDefault, splitHalf int
	var shadowOnly []string // split and half-budget differ in the shadow predictor alone
	for _, spec := range suite {
		plain := bench.Build(spec)
		conv, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, 200000)))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct {
			name string
			prog *program.Program
		}{{spec.Name, plain}, {spec.Name + "+ifc", conv.Prog}} {
			var counts [3]int
			var parts [3][]int32
			for k, cfg := range cfgs {
				_, parts[k] = stats.Partitions(cfg, b.prog)
				counts[k] = shared(parts[k])
				total[k] += counts[k]
			}
			alike := [2]bool{slices.Equal(parts[0], parts[1]), slices.Equal(parts[1], parts[2])}
			fmt.Fprintf(&table, "%-12s %6d %4d %7d %6d %5d %13v %11v\n", b.name, len(parts[0]), p0Dests(b.prog), counts[0], counts[1], counts[2], alike[0], alike[1])
			tr, err := trace.Record(context.Background(), b.prog, commits)
			if err != nil {
				t.Fatal(err)
			}
			pass, err := stats.ReplayAll(context.Background(), cfgs, b.prog, tr, commits, nil)
			if err != nil {
				t.Fatal(err)
			}
			sts := pass.Stats
			if alike[0] {
				sharedSplit++
				if sts[0] != sts[1] {
					t.Errorf("%s: shared and split PVTs alias the same destinations but replay differently:\n shared: %+v\n  split: %+v", b.name, sts[0], sts[1])
				}
			}
			if sts[0] == sts[1] {
				sameDefault++
			}
			if alike[1] {
				splitHalf++
				split, half := sts[1], sts[2]
				if split != half {
					shadowOnly = append(shadowOnly, b.name)
				}
				split.ShadowMispred, half.ShadowMispred = 0, 0
				if split != half {
					t.Errorf("%s: split and half-budget PVTs alias the same destinations but predict differently:\n split: %+v\n  half: %+v", b.name, split, half)
				}
			}
		}
	}
	fmt.Fprintf(&table, "%-12s %6s %4s %7d %6d %5d %10d/%d %8d/%d\n", "total", "", "", total[0], total[1], total[2], sharedSplit, 2*len(suite), splitHalf, 2*len(suite))
	t.Logf("compare destinations sharing a PVT row, by layout:\n%s", table.String())
	t.Logf("split vs shared: same Stats on %d binaries; split vs half-budget: same predicate-predictor counters wherever the partitions coincide, and different ShadowMispred on %v",
		sameDefault, shadowOnly)
}
