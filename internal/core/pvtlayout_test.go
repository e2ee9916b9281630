package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
)

// pvtLayout is one way of placing compare destinations in the PVT.
type pvtLayout struct {
	name  string
	bytes int
	split bool
}

// pvtLayouts are the three layouts of the split-PVT ablation: the
// shared table with two hash functions (the default), the statically
// split table, and the shared table at half the budget, which gives
// each hash the rows one split half has.
func pvtLayouts() []pvtLayout {
	full := config.Default().L2PredBytes
	return []pvtLayout{{"shared", full, false}, {"split", full, true}, {"half", full / 2, false}}
}

// destRows returns the PVT row of every compare destination of p under
// a layout: two per static compare, first destinations first.
func destRows(p *program.Program, l pvtLayout) []int {
	d := config.Default()
	pp := core.New(core.Config{SizeBytes: l.bytes, GHRBits: d.L2PredGHRBits, LHRBits: d.L2PredLHRBits,
		LHTBits: d.L2PredLHTBits, ConfBits: d.ConfBits, SplitPVT: l.split})
	var rows []int
	for pc := 0; pc < p.Len(); pc++ {
		if trace.KindOf(p.At(pc)) == trace.EvCompare {
			r1, r2 := core.SiteRows(pp.Site(pipeline.InstAddr(pc)))
			rows = append(rows, r1, r2)
		}
	}
	return rows
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

// sharing returns how many destinations share their row with another
// destination, and the aliasing partition: for each destination, the
// first destination in its row.
func sharing(rows []int) (shared int, partition []int) {
	first, count := map[int]int{}, map[int]int{}
	for i, r := range rows {
		if _, ok := first[r]; !ok {
			first[r] = i
		}
		count[r]++
	}
	for _, r := range rows {
		partition = append(partition, first[r])
		if count[r] > 1 {
			shared += count[r]
		}
	}
	return shared, partition
}

// TestPVTLayoutSharing counts, for every suite binary (plain and
// if-converted), how many compare destinations share a PVT row under
// the shared, split and half-budget layouts (run with -v for the table
// EXPERIMENTS.md records). Perceptron rows and confidence counters
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
	progs, err := stats.PrepareContext(context.Background(), bench.Suite())
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []config.Config
	for _, l := range pvtLayouts() {
		cfg := config.Default().WithScheme(config.SchemePredicate)
		cfg.L2PredBytes, cfg.SplitPVT = l.bytes, l.split
		cfgs = append(cfgs, cfg)
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-12s %6s %4s %7s %6s %5s %13s %11s\n", "binary", "dests", "p0", "shared", "split", "half", "shared~split", "split~half")
	var total [3]int
	var sharedSplit, sameDefault, splitHalf int
	var shadowOnly []string // split and half-budget differ in the shadow predictor alone
	for i := range progs {
		pg := &progs[i]
		if err := pg.Convert(context.Background(), 200000); err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct {
			name string
			prog *program.Program
		}{{pg.Spec.Name, pg.Plain}, {pg.Spec.Name + "+ifc", pg.Converted}} {
			var counts [3]int
			var parts [3][]int
			for k, l := range pvtLayouts() {
				counts[k], parts[k] = sharing(destRows(b.prog, l))
				total[k] += counts[k]
			}
			alike := [2]bool{reflect.DeepEqual(parts[0], parts[1]), reflect.DeepEqual(parts[1], parts[2])}
			fmt.Fprintf(&table, "%-12s %6d %4d %7d %6d %5d %13v %11v\n", b.name, len(parts[0]), p0Dests(b.prog), counts[0], counts[1], counts[2], alike[0], alike[1])
			tr, err := trace.Record(context.Background(), b.prog, commits)
			if err != nil {
				t.Fatal(err)
			}
			sts, _, err := stats.ReplayAll(context.Background(), cfgs, b.prog, tr, commits, nil)
			if err != nil {
				t.Fatal(err)
			}
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
	fmt.Fprintf(&table, "%-12s %6s %4s %7d %6d %5d %10d/%d %8d/%d\n", "total", "", "", total[0], total[1], total[2], sharedSplit, 2*len(progs), splitHalf, 2*len(progs))
	t.Logf("compare destinations sharing a PVT row, by layout:\n%s", table.String())
	t.Logf("split vs shared: same Stats on %d binaries; split vs half-budget: same predicate-predictor counters wherever the partitions coincide, and different ShadowMispred on %v",
		sameDefault, shadowOnly)
}
