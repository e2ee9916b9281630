package sim

import (
	"fmt"
	"sort"
	"strings"
)

// This file folds results into the paper's figures: the benchmark ×
// scheme tables of Figures 5 and 6a, the Figure 6b breakdown, and a
// sweep's best point and per-axis marginals. A table is one sweep
// point's; the sweep folds tabulate each point and read its means.

// Table organizes results as benchmark rows × scheme columns of
// misprediction rates, in the paper's figure layout. Exact ties for a
// row's best scheme are reported explicitly (Render marks them "tie";
// Wins excludes them; Ties counts them).
type Table struct {
	Title   string
	Schemes []string
	Rows    []TableRow
}

// TableRow is one benchmark's misprediction rates per scheme.
type TableRow struct {
	Bench string
	Class string
	Rate  map[string]float64 // percent
	Runs  map[string]Stats
}

// Best returns the schemes sharing the row's lowest misprediction
// rate, in table column order. More than one entry means an exact tie.
// Schemes with no run in the row (partial result sets, e.g. after a
// cancellation) are skipped, not treated as a 0% rate.
func (r TableRow) Best(schemes []string) []string {
	var best []string
	for _, s := range schemes {
		rate, ok := r.Rate[s]
		if !ok {
			continue
		}
		switch {
		case len(best) == 0 || rate < r.Rate[best[0]]:
			best = []string{s}
		case rate == r.Rate[best[0]]:
			best = append(best, s)
		}
	}
	return best
}

// onePoint fails unless every result belongs to one sweep point. A
// figure keys its rows by benchmark, so a second point's runs would
// silently replace the first's.
func onePoint(rs []Result) error {
	for _, r := range rs {
		if p, q := rs[0].Point, r.Point; q.Index != p.Index {
			return fmt.Errorf("sim: results span sweep points %d (%s) and %d (%s); tabulate one point at a time",
				p.Index, p, q.Index, q)
		}
	}
	return nil
}

// Tabulate folds one sweep point's results into a Table with the given
// scheme columns. It fails if any result carries a per-run error, or if
// the results span more than one point.
func Tabulate(title string, schemes []string, rs []Result) (*Table, error) {
	if err := onePoint(rs); err != nil {
		return nil, err
	}
	t := &Table{Title: title, Schemes: schemes}
	row := map[string]int{}
	for _, r := range rs {
		if r.Err != nil {
			return nil, fmt.Errorf("%s/%s: %w", r.Bench, r.Scheme, r.Err)
		}
		i, ok := row[r.Bench]
		if !ok {
			i = len(t.Rows)
			row[r.Bench] = i
			t.Rows = append(t.Rows, TableRow{Bench: r.Bench, Class: r.Class,
				Rate: map[string]float64{}, Runs: map[string]Stats{}})
		}
		t.Rows[i].Rate[r.Scheme] = 100 * r.Stats.MispredictRate()
		t.Rows[i].Runs[r.Scheme] = r.Stats
	}
	return t, nil
}

// mean returns a scheme's mean misprediction rate (percent) over the
// rows that ran it, and how many did: like Best, it skips a row with
// no run of the scheme rather than reading it as 0%.
func (t *Table) mean(s string) (float64, int) {
	sum, n := 0.0, 0
	for _, r := range t.Rows {
		if rate, ok := r.Rate[s]; ok {
			sum += rate
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// Average returns the arithmetic-mean misprediction rate for a scheme.
func (t *Table) Average(s string) float64 {
	m, _ := t.mean(s)
	return m
}

// AccuracyDelta returns the average accuracy improvement (percentage
// points) of scheme a over scheme b: rate(b) - rate(a).
func (t *Table) AccuracyDelta(a, b string) float64 {
	return t.Average(b) - t.Average(a)
}

// Render formats the table in the paper's figure layout. The "best"
// column names the scheme with the lowest rate on that row, or "tie"
// when two or more schemes share the exact minimum.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	fmt.Fprintf(&b, "%-10s", "benchmark")
	for _, s := range t.Schemes {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteString("   best\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s", r.Bench)
		for _, s := range t.Schemes {
			fmt.Fprintf(&b, " %13.2f%%", r.Rate[s])
		}
		best := r.Best(t.Schemes)
		if len(best) > 1 {
			fmt.Fprintf(&b, "   tie (%s)\n", strings.Join(best, "="))
		} else if len(best) == 1 {
			fmt.Fprintf(&b, "   %s\n", best[0])
		} else {
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "%-10s", "AVG")
	for _, s := range t.Schemes {
		fmt.Fprintf(&b, " %13.2f%%", t.Average(s))
	}
	b.WriteString("\n")
	return b.String()
}

// Wins counts benchmarks where scheme a has a strictly lower
// misprediction rate than every other scheme in the table. Exact ties
// are not wins for either side — they are counted by Ties.
func (t *Table) Wins(a string) int {
	n := 0
	for _, r := range t.Rows {
		best := r.Best(t.Schemes)
		if len(best) == 1 && best[0] == a {
			n++
		}
	}
	return n
}

// Ties counts benchmarks where scheme a shares the row's exact minimum
// misprediction rate with at least one other scheme.
func (t *Table) Ties(a string) int {
	n := 0
	for _, r := range t.Rows {
		best := r.Best(t.Schemes)
		if len(best) < 2 {
			continue
		}
		for _, s := range best {
			if s == a {
				n++
				break
			}
		}
	}
	return n
}

// Breakdown is one benchmark's Figure 6b decomposition: the total
// accuracy difference between the predicate scheme and the (shadow)
// conventional predictor, split into the early-resolved contribution
// and the remaining correlation contribution. Units are percentage
// points of branch prediction accuracy.
type Breakdown struct {
	Bench       string
	Total       float64
	Early       float64
	Correlation float64
}

// BreakdownTable computes Figure 6b from one sweep point's results.
// Results are selected semantically — only a predicate-predictor run
// accumulates shadow conventional-predictor statistics — so a predpred
// run under a configuration mutator (a split PVT, the idealized
// variants) is included like any other, and every other run is
// skipped.
func BreakdownTable(rs []Result) ([]Breakdown, error) {
	if err := onePoint(rs); err != nil {
		return nil, err
	}
	var out []Breakdown
	for _, r := range rs {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Bench, r.Err)
		}
		st := r.Stats
		if st.ShadowCondBranches == 0 || st.CondBranches == 0 {
			continue
		}
		total := 100 * (st.ShadowMispredictRate() - st.MispredictRate())
		early := 100 * float64(st.EarlyResolvedHit) / float64(st.CondBranches)
		out = append(out, Breakdown{
			Bench:       r.Bench,
			Total:       total,
			Early:       early,
			Correlation: total - early,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bench < out[j].Bench })
	return out, nil
}

// RenderBreakdown formats Figure 6b.
func RenderBreakdown(rows []Breakdown) string {
	var b strings.Builder
	title := "Figure 6b: accuracy difference breakdown (predicate predictor vs conventional)"
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "%-10s %12s %18s %12s\n", "benchmark", "early-resvd", "correlation", "total")
	var se, sc, st float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %11.2fpp %17.2fpp %11.2fpp\n", r.Bench, r.Early, r.Correlation, r.Total)
		se += r.Early
		sc += r.Correlation
		st += r.Total
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-10s %11.2fpp %17.2fpp %11.2fpp\n", "AVG", se/n, sc/n, st/n)
	}
	return b.String()
}

// pointTables tabulates each sweep point's results, in first-appearance
// order (point order, for results from Run or SortResults). A failed
// run fails its point.
func pointTables(rs []Result) ([]Point, []*Table, error) {
	at := map[int]int{}
	var points []Point
	var cells [][]Result
	for _, r := range rs {
		i, ok := at[r.Point.Index]
		if !ok {
			i = len(cells)
			at[r.Point.Index] = i
			points = append(points, r.Point)
			cells = append(cells, nil)
		}
		cells[i] = append(cells[i], r)
	}
	tabs := make([]*Table, len(cells))
	for i, c := range cells {
		t, err := Tabulate("", nil, c)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: point %d, %w", points[i].Index, err)
		}
		tabs[i] = t
	}
	return points, tabs, nil
}

// BestPoint returns the sweep point with the lowest mean misprediction
// rate for a scheme, and that rate in percent.
func BestPoint(rs []Result, scheme string) (Point, float64, error) {
	points, tabs, err := pointTables(rs)
	if err != nil {
		return Point{}, 0, err
	}
	best, bestRate := -1, 0.0
	for i, t := range tabs {
		rate, n := t.mean(scheme)
		if n > 0 && (best < 0 || rate < bestRate) {
			best, bestRate = i, rate
		}
	}
	if best < 0 {
		return Point{}, 0, fmt.Errorf("sim: no runs for scheme %q in sweep results", scheme)
	}
	return points[best], bestRate, nil
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
	points, tabs, err := pointTables(rs)
	if err != nil {
		return nil, err
	}
	type acc struct {
		sum map[string]float64
		n   map[string]int
		pts int
	}
	byValue := map[string]*acc{}
	var order []string
	for i, p := range points {
		v, ok := p.Value(axis)
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
			if rate, n := tabs[i].mean(scheme); n > 0 {
				a.sum[scheme] += rate
				a.n[scheme]++
			}
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
