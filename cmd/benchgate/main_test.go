package main

import (
	"math"
	"strings"
	"testing"
)

func doc(pipeline, trace map[string]float64) benchDoc {
	return benchDoc{
		Benchmark: "vpr",
		InstrsPerSecond: map[string]map[string]float64{
			"pipeline": pipeline,
			"trace":    trace,
		},
	}
}

func mustCompare(t *testing.T, old, fresh benchDoc, metric string, tol float64) comparison {
	t.Helper()
	c, err := compare(old, fresh, metric, tol)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	return c
}

func TestCompareWithinTolerance(t *testing.T) {
	old := doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 4e7})
	fresh := doc(map[string]float64{"conventional": 1.25e6}, map[string]float64{"conventional": 3.1e7})
	if c := mustCompare(t, old, fresh, "ips", 0.30); c.failed() {
		t.Fatalf("±25%% moves inside a ±30%% band should pass: %+v", c)
	}
}

func TestCompareFlagsRegressionAndStale(t *testing.T) {
	old := doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 4e7})
	fresh := doc(map[string]float64{"conventional": 0.6e6}, map[string]float64{"conventional": 6e7})
	c := mustCompare(t, old, fresh, "ips", 0.30)
	if len(c.drifts) != 2 {
		t.Fatalf("want both directions flagged, got %v", c.drifts)
	}
	// Sorted keys: pipeline/conventional (0.6x), then trace/conventional (1.5x).
	if c.drifts[0].Key != "pipeline/conventional" || c.drifts[0].Ratio >= 1 {
		t.Errorf("drift 0 should be the regression: %+v", c.drifts[0])
	}
	if c.drifts[1].Key != "trace/conventional" || c.drifts[1].Ratio <= 1 {
		t.Errorf("drift 1 should be the stale baseline: %+v", c.drifts[1])
	}
}

func TestCompareBoundaryExactlyAtTolerance(t *testing.T) {
	old := doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 1e6})
	fresh := doc(map[string]float64{"conventional": 0.7e6}, map[string]float64{"conventional": 1.3e6})
	if c := mustCompare(t, old, fresh, "ips", 0.30); len(c.drifts) != 0 {
		t.Fatalf("exactly ±30%% is inside a closed ±30%% band, got %v", c.drifts)
	}
}

// TestCompareKeySetSymmetry is the table for the first gate fix: a key
// present in only one document must fail the gate and name both the key
// and the side it is absent from, whichever side that is.
func TestCompareKeySetSymmetry(t *testing.T) {
	cases := []struct {
		name        string
		old, fresh  benchDoc
		wantMissing []string
	}{
		{
			name:        "series vanished from fresh run",
			old:         doc(map[string]float64{"conventional": 1e6, "predpred": 1e6}, map[string]float64{"conventional": 4e7}),
			fresh:       doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 4e7}),
			wantMissing: []string{"pipeline/predpred (absent from fresh run)"},
		},
		{
			name:        "series appeared without a baseline",
			old:         doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 4e7}),
			fresh:       doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 4e7, "peppa": 7e7}),
			wantMissing: []string{"trace/peppa (absent from baseline)"},
		},
		{
			name: "both directions at once",
			old:  doc(map[string]float64{"conventional": 1e6, "predpred": 1e6}, map[string]float64{"conventional": 4e7}),
			fresh: doc(map[string]float64{"conventional": 1e6},
				map[string]float64{"conventional": 4e7, "peppa": 7e7}),
			wantMissing: []string{
				"pipeline/predpred (absent from fresh run)",
				"trace/peppa (absent from baseline)",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCompare(t, tc.old, tc.fresh, "ips", 0.30)
			if len(c.drifts) != 0 || len(c.invalid) != 0 {
				t.Fatalf("asymmetric keys must be missing, not drifts/invalid: %+v", c)
			}
			if len(c.missing) != len(tc.wantMissing) {
				t.Fatalf("missing = %v, want %v", c.missing, tc.wantMissing)
			}
			for i, want := range tc.wantMissing {
				if c.missing[i] != want {
					t.Errorf("missing[%d] = %q, want %q", i, c.missing[i], want)
				}
			}
		})
	}
}

// TestCompareInvalidBaseline is the table for the second gate fix: a
// baseline figure that cannot anchor a ratio (zero, negative, NaN, Inf)
// must be reported as an invalid baseline instead of dividing into
// Inf/NaN — while the same figures on the fresh side still gate as
// ordinary drifts.
func TestCompareInvalidBaseline(t *testing.T) {
	cases := []struct {
		name        string
		oldV, newV  float64
		wantInvalid bool
		wantDrift   bool
	}{
		{name: "zero baseline", oldV: 0, newV: 1e6, wantInvalid: true},
		{name: "negative baseline", oldV: -1e6, newV: 1e6, wantInvalid: true},
		{name: "NaN baseline", oldV: math.NaN(), newV: 1e6, wantInvalid: true},
		{name: "Inf baseline", oldV: math.Inf(1), newV: 1e6, wantInvalid: true},
		{name: "zero fresh value is a plain regression", oldV: 1e6, newV: 0, wantDrift: true},
		{name: "both healthy", oldV: 1e6, newV: 1.1e6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := doc(map[string]float64{"conventional": tc.oldV}, map[string]float64{"conventional": 4e7})
			fresh := doc(map[string]float64{"conventional": tc.newV}, map[string]float64{"conventional": 4e7})
			c := mustCompare(t, old, fresh, "ips", 0.30)
			if got := len(c.invalid) > 0; got != tc.wantInvalid {
				t.Fatalf("invalid = %v, want invalid=%v", c.invalid, tc.wantInvalid)
			}
			if got := len(c.drifts) > 0; got != tc.wantDrift {
				t.Fatalf("drifts = %v, want drift=%v", c.drifts, tc.wantDrift)
			}
			for _, d := range c.drifts {
				if math.IsNaN(d.Ratio) || math.IsInf(d.Ratio, 0) {
					t.Errorf("drift ratio must stay finite, got %v", d.Ratio)
				}
			}
			if tc.wantInvalid && !strings.Contains(c.invalid[0], "pipeline/conventional") {
				t.Errorf("invalid entry should name the key: %q", c.invalid[0])
			}
		})
	}
}

// TestCompareEmptySeriesIsAnError pins the no-silent-pass rule: gating
// a metric that has no series in the baseline (or the fresh document)
// is an error naming the metric, not a trivially green gate of zero
// comparisons.
func TestCompareEmptySeriesIsAnError(t *testing.T) {
	full := doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 4e7})
	full.Speedup = map[string]float64{"conventional": 40}
	empty := doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 4e7})
	for _, tc := range []struct {
		name       string
		old, fresh benchDoc
	}{
		{"no speedup series in baseline", empty, full},
		{"no speedup series in fresh run", full, empty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := compare(tc.old, tc.fresh, "speedup", 0.30)
			if err == nil {
				t.Fatal("empty gated series should be an error")
			}
			if !strings.Contains(err.Error(), "speedup") {
				t.Errorf("error should name the metric: %v", err)
			}
		})
	}
}

// TestGateListParsing is the table for the repeatable -metric flag:
// bare metric names in order, and the rejection set (unknown or retired
// metrics, option suffixes, duplicates).
func TestGateListParsing(t *testing.T) {
	var g gateList
	for _, v := range []string{"speedup", "ips"} {
		if err := g.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	if s := g.String(); s != "speedup,ips" {
		t.Errorf("String() = %q", s)
	}
	for _, bad := range []string{
		"nosuch", "parallel", "sweep", "speedup:min=1.5", "", "speedup", // duplicate of the first Set
	} {
		if err := g.Set(bad); err == nil {
			t.Errorf("Set(%q) should fail", bad)
		}
	}
}

// TestCompareSpeedupMetric pins the machine-independent gate CI uses:
// only trace_mode_speedup ratios are compared, so absolute instrs/s
// drift (a slower runner) is invisible while a collapsed speedup is
// flagged.
func TestCompareSpeedupMetric(t *testing.T) {
	old := doc(map[string]float64{"conventional": 1e6}, map[string]float64{"conventional": 4e7})
	old.Speedup = map[string]float64{"conventional": 40, "predpred": 15}
	// Half-speed machine: absolute numbers halve, ratios hold.
	fresh := doc(map[string]float64{"conventional": 0.5e6}, map[string]float64{"conventional": 2e7})
	fresh.Speedup = map[string]float64{"conventional": 40, "predpred": 15}
	if c := mustCompare(t, old, fresh, "speedup", 0.30); c.failed() {
		t.Fatalf("speedup metric must ignore absolute slowdown: %+v", c)
	}
	// A trace-engine regression shows up as a collapsed ratio.
	fresh.Speedup["predpred"] = 6
	c := mustCompare(t, old, fresh, "speedup", 0.30)
	if len(c.drifts) != 1 || c.drifts[0].Key != "predpred" {
		t.Fatalf("collapsed predpred speedup should be the one drift: %v", c.drifts)
	}
}
