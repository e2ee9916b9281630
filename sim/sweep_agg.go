package sim

import (
	"fmt"
	"strings"
)

// byPoint groups results by sweep point, in first-appearance order
// (point order, for results from Run or SortResults).
func byPoint(rs []Result) [][]Result {
	at := map[int]int{}
	var out [][]Result
	for _, r := range rs {
		i, ok := at[r.Point.Index]
		if !ok {
			i = len(out)
			at[r.Point.Index] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], r)
	}
	return out
}

// pointMispredict returns one point's mean misprediction rate
// (percent) across its runs of one scheme, and how many runs
// contributed. A failed run poisons the aggregate, mirroring Tabulate.
func pointMispredict(cells []Result, scheme string) (float64, int, error) {
	var sum float64
	n := 0
	for _, r := range cells {
		if r.Scheme != scheme {
			continue
		}
		if r.Err != nil {
			return 0, 0, fmt.Errorf("sim: point %d, %s/%s: %w", r.Point.Index, r.Bench, r.Scheme, r.Err)
		}
		sum += 100 * r.Stats.MispredictRate()
		n++
	}
	if n == 0 {
		return 0, 0, nil
	}
	return sum / float64(n), n, nil
}

// BestPoint returns the sweep point with the lowest mean misprediction
// rate for a scheme, and that rate in percent.
func BestPoint(rs []Result, scheme string) (Point, float64, error) {
	var best []Result
	bestRate := 0.0
	for _, cells := range byPoint(rs) {
		rate, n, err := pointMispredict(cells, scheme)
		if err != nil {
			return Point{}, 0, err
		}
		if n == 0 {
			continue
		}
		if best == nil || rate < bestRate {
			best, bestRate = cells, rate
		}
	}
	if best == nil {
		return Point{}, 0, fmt.Errorf("sim: no runs for scheme %q in sweep results", scheme)
	}
	return best[0].Point, bestRate, nil
}

// Marginal is one row of a per-axis marginal table: one axis value,
// with each scheme's misprediction rate averaged over every sweep
// point holding that value (all other axes marginalized out).
type Marginal struct {
	Value  string
	Mean   map[string]float64 // scheme name → mean misprediction %
	Points int                // sweep points holding this axis value
}

// MarginalTable folds sweep results into the named axis's marginal
// rows, in first-appearance (axis declaration) order.
func MarginalTable(rs []Result, axis string, schemes []string) ([]Marginal, error) {
	type acc struct {
		sum map[string]float64
		n   map[string]int
		pts int
	}
	byValue := map[string]*acc{}
	var order []string
	for _, cells := range byPoint(rs) {
		v, ok := cells[0].Point.Value(axis)
		if !ok {
			return nil, fmt.Errorf("sim: sweep results have no axis %q", axis)
		}
		a := byValue[v]
		if a == nil {
			a = &acc{sum: map[string]float64{}, n: map[string]int{}}
			byValue[v] = a
			order = append(order, v)
		}
		a.pts++
		for _, scheme := range schemes {
			rate, n, err := pointMispredict(cells, scheme)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				continue
			}
			a.sum[scheme] += rate
			a.n[scheme]++
		}
	}
	rows := make([]Marginal, 0, len(order))
	for _, v := range order {
		a := byValue[v]
		m := Marginal{Value: v, Mean: map[string]float64{}, Points: a.pts}
		for _, scheme := range schemes {
			if a.n[scheme] > 0 {
				m.Mean[scheme] = a.sum[scheme] / float64(a.n[scheme])
			}
		}
		rows = append(rows, m)
	}
	return rows, nil
}

// RenderMarginals formats one axis's marginal table as text: axis
// values down, schemes across, mean misprediction percent in the
// cells.
func RenderMarginals(axis string, schemes []string, rows []Marginal) string {
	var b strings.Builder
	title := fmt.Sprintf("marginal misprediction rate by %s", axis)
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(&b, "%-14s %6s", axis, "points")
	for _, s := range schemes {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6d", r.Value, r.Points)
		for _, s := range schemes {
			if m, ok := r.Mean[s]; ok {
				fmt.Fprintf(&b, " %13.2f%%", m)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
