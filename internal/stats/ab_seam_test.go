package stats_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

var seamStart = time.Now()

// TestSeamOverheadAB interleaves untimed and timed single-pass replays
// in one process and reports median wall times; informational.
func TestSeamOverheadAB(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement, not a correctness test")
	}
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(spec)
	tr, err := trace.Record(context.Background(), prog, 200000)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []config.Config
	for _, s := range []config.Scheme{config.SchemeConventional, config.SchemePredicate, config.SchemePEPPA} {
		c := config.Default()
		c.Scheme = s
		cfgs = append(cfgs, c)
	}
	now := func() int64 { return int64(time.Since(seamStart)) }
	const reps = 30
	var un, tm []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := stats.ReplayAll(context.Background(), cfgs, prog, tr, 50000, nil, nil); err != nil {
			t.Fatal(err)
		}
		un = append(un, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := stats.ReplayAll(context.Background(), cfgs, prog, tr, 50000, nil, now); err != nil {
			t.Fatal(err)
		}
		tm = append(tm, time.Since(t0).Seconds())
	}
	sort.Float64s(un)
	sort.Float64s(tm)
	mu, mt := un[reps/2], tm[reps/2]
	t.Logf("median untimed %.4fms  timed %.4fms  overhead %+.2f%%", mu*1e3, mt*1e3, 100*(mt/mu-1))
}
