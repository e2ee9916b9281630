package stats

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/program"
	"repro/internal/trace"
)

// geometries are the table geometries the exactness test replays every
// scheme under: the Table 1 budget, half and double it, and the two
// geometry knobs that replace hashing (the §4.2 idealization and the
// split PVT).
var geometries = []func(*config.Config){
	func(*config.Config) {},
	func(c *config.Config) { c.L2PredBytes /= 2 },
	func(c *config.Config) { c.L2PredBytes *= 2 },
	func(c *config.Config) { c.IdealNoAlias = true },
	func(c *config.Config) { c.SplitPVT = true },
}

// geometryCfgs is every scheme under every geometry, geometry-major.
func geometryCfgs() []config.Config {
	var cfgs []config.Config
	for _, set := range geometries {
		for _, cfg := range schemeCfgs() {
			set(&cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// checkAgainstIndependent replays tr through cfgs in one pass and
// fails unless every entry equals an independent Replay of its
// configuration. It returns the pass.
func checkAgainstIndependent(t *testing.T, name string, cfgs []config.Config, prog *program.Program, tr *trace.Trace, commits uint64) Pass {
	t.Helper()
	p, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		ind, err := Replay(cfg, prog, tr, commits)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Stats[i], ind) {
			t.Errorf("%s, cfg %d: single-pass stats diverge from an independent replay:\n all: %+v\n ind: %+v", name, i, p.Stats[i], ind)
		}
	}
	return p
}

// TestReplayAllExactAcrossGeometries is the exactness property of
// engine sharing over the whole suite, plain and if-converted: each of
// the three schemes under each of five geometries, replayed in one
// pass, equals an independent Replay, although configurations whose
// tables alias the binary's sites alike share one engine. It also pins
// the engine count of gcc's pass, whose two budgets alias its branches
// differently, and with -v logs which binaries pred.bytes 75776 →
// 151552 cannot move, table by table (EXPERIMENTS.md "Configurations
// that alias alike replay once").
func TestReplayAllExactAcrossGeometries(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares, converts and replays the whole suite")
	}
	const commits = 20000
	progs := buildBoth(t, bench.Suite(), 200000)
	cfgs := geometryCfgs()
	half := func(sch config.Scheme) config.Config {
		c := config.Default().WithScheme(sch)
		c.L2PredBytes /= 2
		return c
	}
	ideal := func(sch config.Scheme) config.Config {
		c := config.Default().WithScheme(sch)
		c.IdealNoAlias = true
		return c
	}
	full := func(sch config.Scheme) config.Config { return config.Default().WithScheme(sch) }
	var table strings.Builder
	fmt.Fprintf(&table, "%-12s %8s %6s %11s %9s %8s %7s\n", "binary", "branches", "dests", "conv 75776", "pvt 75776", "engines", "ideal")
	var convAlike, bothAlike, idealConv, idealPVT int
	for _, pg := range progs {
		for _, b := range []struct {
			name string
			prog *program.Program
		}{{pg.Spec.Name, pg.Plain}, {pg.Spec.Name + "+ifc", pg.Converted}} {
			tr, err := trace.Record(context.Background(), b.prog, commits)
			if err != nil {
				t.Fatal(err)
			}
			p := checkAgainstIndependent(t, b.name, cfgs, b.prog, tr, commits)
			// A size cannot move a binary's numbers when both tables
			// alias its sites alike: the conventional table's branches,
			// and the PVT's destinations with the shadow's branches.
			convB, _ := Partitions(full(config.SchemeConventional), b.prog)
			halfB, _ := Partitions(half(config.SchemeConventional), b.prog)
			_, predD := Partitions(full(config.SchemePredicate), b.prog)
			_, halfD := Partitions(half(config.SchemePredicate), b.prog)
			idealB, _ := Partitions(ideal(config.SchemeConventional), b.prog)
			_, idealD := Partitions(ideal(config.SchemePredicate), b.prog)
			conv, pvt := slices.Equal(convB, halfB), slices.Equal(predD, halfD)
			var alike []string
			if slices.Equal(convB, idealB) {
				alike = append(alike, "conv")
				idealConv++
			}
			if slices.Equal(predD, idealD) {
				alike = append(alike, "pvt")
				idealPVT++
			}
			if b.prog == pg.Plain {
				if conv {
					convAlike++
				}
				if conv && pvt {
					bothAlike++
				}
			}
			fmt.Fprintf(&table, "%-12s %8d %6d %11s %9s %5d/%d %7s\n", b.name, len(convB), len(predD),
				movable(conv), movable(pvt), p.Engines(), len(cfgs), strings.Join(alike, "+"))
			if b.name == "gcc" {
				if conv {
					t.Fatal("gcc: the 75776- and 151552-byte tables alias its branches alike; the engine-count pin needs a binary they split")
				}
				// Conventional: the doubled table, like the idealized
				// one, gives every branch a row of its own, and split
				// reads the default table: three engines. Predicate: five keys, as
				// the idealized PVT's shadow is the default table. PEP-PA
				// reads neither table: one engine for all five.
				if got := p.Engines(); got != 9 {
					t.Errorf("gcc: %d engines for %d configurations, want 9", got, len(cfgs))
				}
			}
		}
	}
	fmt.Fprintf(&table, "plain binaries pred.bytes 75776 → 151552 cannot move: conventional %d/%d, conventional and PVT %d/%d; idealized table equals the real one: conventional %d/%d, PVT %d/%d\n",
		convAlike, len(progs), bothAlike, len(progs), idealConv, 2*len(progs), idealPVT, 2*len(progs))
	t.Logf("which tables 75776 → 151552 bytes can move (\"fixed\": both sizes alias the binary's sites alike), engines per %d-configuration pass, and which idealized tables equal the real one:\n%s", len(cfgs), table.String())
}

// movable renders whether two table sizes alias a binary's sites
// differently.
func movable(alike bool) string {
	if alike {
		return "fixed"
	}
	return "moves"
}

// FuzzReplayAll is the exactness property of engine sharing and of the
// outcome store under fuzzed inputs: a suite benchmark built at an
// offset from its spec's seed, replayed by every scheme at two
// second-level budgets, real and idealized, in one pass, must equal an
// independent Replay of each configuration, and two passes through one
// store must equal it too, the second running no conventional
// predictor (checkStoredOutcomes). Budgets run up to 1 MB, which keeps each execution's
// tables small. The seeds (testdata/fuzz/FuzzReplayAll) are gcc, whose
// branches the 75776- and 151552-byte tables alias differently, vpr,
// whose sites they alias alike, and gzip re-seeded under a small table.
func FuzzReplayAll(f *testing.F) {
	suite := bench.Suite()
	f.Fuzz(func(t *testing.T, entry uint8, seed uint16, bytesA, bytesB uint32) {
		spec := suite[int(entry)%len(suite)]
		spec.Seed += int64(seed)
		prog := bench.Build(spec)
		const commits = 20000
		tr, err := trace.Record(context.Background(), prog, commits)
		if err != nil {
			t.Fatal(err)
		}
		var cfgs []config.Config
		for _, bytes := range []uint32{bytesA, bytesB} {
			for _, idealize := range []bool{false, true} {
				for _, cfg := range schemeCfgs() {
					cfg.L2PredBytes = 1 + int(bytes%(1<<20))
					cfg.IdealNoAlias = idealize
					cfgs = append(cfgs, cfg)
				}
			}
		}
		p := checkAgainstIndependent(t, spec.Name, cfgs, prog, tr, commits)
		checkStoredOutcomes(t, spec.Name, cfgs, prog, tr, commits, p)
	})
}

// checkStoredOutcomes replays tr through cfgs twice through one shared
// store and fails unless both passes equal p, the pass with no store:
// the first runs every conventional predictor p ran and stores them,
// and the second runs none and reads them all.
func checkStoredOutcomes(t *testing.T, name string, cfgs []config.Config, prog *program.Program, tr *trace.Trace, commits uint64, p Pass) {
	t.Helper()
	var store Outcomes
	for round := range 2 {
		q, err := ReplayAll(context.Background(), cfgs, prog, tr, commits, &store, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q.Stats, p.Stats) {
			t.Fatalf("%s, pass %d through a store: stats diverge from the pass with none:\n got: %+v\nwant: %+v", name, round, q.Stats, p.Stats)
		}
		run, reused := p.ConvRun, 0
		if round == 1 {
			run, reused = 0, p.ConvRun
		}
		if q.ConvRun != run || q.ConvReused != reused {
			t.Fatalf("%s, pass %d through a store: ran %d conventional predictors and reused %d, want %d and %d",
				name, round, q.ConvRun, q.ConvReused, run, reused)
		}
	}
}
