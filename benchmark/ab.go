package main

import (
	"context"
	"errors"
	"os"
	"time"
)

// abRow is one end-to-end metric of an interleaved A/B comparison
// between this build and another build of the benchmark.
type abRow struct {
	Metric  string  `json:"metric"`
	Unit    string  `json:"unit"`
	This    summary `json:"this"`
	Other   summary `json:"other"`
	WinFrac float64 `json:"win_frac"` // share of pairs this build read better, ties counting for neither
	Verdict string  `json:"verdict"`
}

// compare runs pairs of invocations of this build and of other on one
// workload, alternating which side runs first, and judges each
// end-to-end metric by the gain rule: a gain needs at least nine wins in
// ten and a median gap wider than the other side's interquartile range.
func compare(ctx context.Context, exe, other string, w *workload, seed int64, pairs int) (*outcome, error) {
	if pairs < 1 {
		return nil, errors.New("-pairs must be at least 1")
	}
	state, err := scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(state)
	chk, err := newChecker(w, seed)
	if err != nil {
		return nil, err
	}
	iv := &invocations{w: w, state: state}
	one := func(bin string) sample {
		dir := iv.traceDir()
		defer iv.done(dir)
		s, err := invoke(ctx, bin, w, seed, dir, false)
		chk.check(s.rep, err)
		return s
	}
	sides := []string{exe, other}
	if w.traces == warmTraces {
		for _, bin := range sides {
			one(bin)
		}
	}
	var this, that []sample
	cal := calibrate(0)
	for i := 0; i < pairs && ctx.Err() == nil; i++ {
		got := make([]sample, 2)
		for k := range sides {
			side := (i + k) % 2 // alternate which build runs first
			got[side] = one(sides[side])
		}
		if got[0].rep != nil && got[1].rep != nil {
			this = append(this, got[0])
			that = append(that, got[1])
			cal = append(cal, calibrate(time.Duration(got[0].rep.WallNS)/10)...)
		}
	}
	if len(this) == 0 {
		return nil, errors.New("no A/B pair completed")
	}
	oc := newOutcome(w, this, cal)
	for _, d := range endToEnd {
		oc.AB = append(oc.AB, judge(d, this, that))
	}
	oc.Attempted, oc.Failed = chk.attempted, chk.failed
	return oc, nil
}

// judge applies the gain and no-regression rules to one metric.
func judge(d metricDef, this, that []sample) abRow {
	var a, b []float64
	wins := 0
	for i := range this {
		// Unscaled: both builds of a pair see the same host.
		x, y := this[i].endToEnd(1)[d.Name], that[i].endToEnd(1)[d.Name]
		a, b = append(a, x), append(b, y)
		if better(d, x, y) {
			wins++
		}
	}
	r := abRow{Metric: d.Name, Unit: d.Unit, This: summarize(a), Other: summarize(b), WinFrac: float64(wins) / float64(len(a))}
	gap := r.Other.Median - r.This.Median // > 0: this build is better
	if d.Better == "higher" {
		gap = -gap
	}
	iqr := r.Other.Q3 - r.Other.Q1
	spread := max(iqr/r.Other.Median, (r.This.Q3-r.This.Q1)/r.This.Median)
	switch {
	case 10*wins >= 9*len(a) && gap > iqr:
		r.Verdict = "gain"
	case spread > d.Bound && allBetter(d, a, b):
		r.Verdict = "better in every run"
	case spread > d.Bound:
		r.Verdict = "unresolved"
	case -gap > d.Bound*r.Other.Median:
		r.Verdict = "regression"
	default:
		r.Verdict = "within bound"
	}
	return r
}

func better(d metricDef, x, y float64) bool {
	if d.Better == "higher" {
		return x > y
	}
	return x < y
}

// allBetter reports whether every run of this build reads better than
// every run of the other.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(d, x, y) {
				return false
			}
		}
	}
	return true
}
