// Package stats is the internal experiment engine behind the public
// repro/sim façade: it builds the two binary sets of §4.1, runs
// single simulations (optionally under a context for cancellation),
// and folds run lists into the paper's tables and figures: Figure 5
// (branch misprediction on non-if-converted code), Figure 6a
// (if-converted code, three predictors), Figure 6b (early-resolved vs
// correlation breakdown), the §4.2/§4.3 idealized variants, and the
// ablations motivated by the §3.3 design discussion.
//
// External consumers (cmd/, examples/, the benchmark/ module)
// should not import this package directly; they drive everything
// through repro/sim.
package stats

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/ifconvert"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/program"
)

// Run is the result of simulating one benchmark under one scheme.
// Scheme is the column name the run is tabulated under: a repro/sim
// scheme table name, which for the paper's three organizations equals
// the config.Scheme String().
type Run struct {
	Bench  string
	Class  string
	Scheme string
	Stats  pipeline.Stats
	Err    error
}

// Programs holds one benchmark's binaries: the plain build of §4.1,
// and the profile-guided if-converted build once Convert has made it.
type Programs struct {
	Spec      bench.Spec
	Plain     *program.Program
	Converted *program.Program // nil until Convert
}

// conversions counts profile-guided if-conversions, on the process
// registry: a run that reads only plain binaries leaves it at zero.
var conversions = obs.Default().Counter("prepare.conversions")

// PrepareContext builds the plain binary of every benchmark, honoring
// ctx: benchmarks not yet built when the context is cancelled are
// skipped and the context's error is returned. It profiles nothing;
// Convert builds a benchmark's if-converted binary when a run first
// reads it.
func PrepareContext(ctx context.Context, suite []bench.Spec) ([]Programs, error) {
	out := make([]Programs, len(suite))
	for i, s := range suite {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = Programs{Spec: s, Plain: bench.Build(s)}
	}
	return out, nil
}

// Convert builds the benchmark's if-converted binary: it profiles the
// plain binary for profileSteps emulator steps under ctx (a cancel
// stops the profile within one slice of its steps) and if-converts the
// hammocks the profile selects.
func (pg *Programs) Convert(ctx context.Context, profileSteps uint64) error {
	prof, err := ifconvert.ProfileProgramContext(ctx, pg.Plain, profileSteps)
	if err != nil {
		return err
	}
	res, err := ifconvert.Convert(pg.Plain, ifconvert.DefaultOptions(prof))
	if err != nil {
		return fmt.Errorf("%s: %w", pg.Spec.Name, err)
	}
	pg.Converted = res.Prog
	conversions.Inc()
	return nil
}

// simChunk is the commit-budget slice between context checks in
// SimulateContext: small enough that cancellation lands within
// milliseconds, large enough that the check never shows up in a
// profile.
const simChunk = 16384

// Simulate runs one program under one configuration for a commit
// budget (0 = run to halt).
func Simulate(cfg config.Config, p *program.Program, commits uint64) (pipeline.Stats, error) {
	pl, err := SimulateContext(context.Background(), cfg, p, commits)
	if pl != nil {
		return pl.Stats, err
	}
	return pipeline.Stats{}, err
}

// SimulateContext runs one program under one configuration in
// commit-budget slices, checking ctx between slices so callers can
// cancel a long simulation promptly (not just between runs). The
// returned pipeline carries the statistics accumulated so far even
// when the context was cancelled mid-run; it is nil only when the
// configuration was rejected outright.
func SimulateContext(ctx context.Context, cfg config.Config, p *program.Program, commits uint64) (*pipeline.Pipeline, error) {
	pl, err := pipeline.New(cfg, p)
	if err != nil {
		return nil, err
	}
	for !pl.Halted() {
		if err := ctx.Err(); err != nil {
			return pl, err
		}
		next := pl.Stats.Committed + simChunk
		if commits > 0 && next > commits {
			next = commits
		}
		if err := pl.Run(next); err != nil {
			return pl, err
		}
		if commits > 0 && pl.Stats.Committed >= commits {
			break
		}
	}
	return pl, nil
}

// Table organizes runs as benchmark rows × scheme columns of
// misprediction rates (percent). Columns are keyed by scheme name.
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
	Runs  map[string]pipeline.Stats
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

// Tabulate folds a run list into a Table.
func Tabulate(title string, schemes []string, runs []Run) (*Table, error) {
	t := &Table{Title: title, Schemes: schemes}
	byBench := map[string]*TableRow{}
	var order []string
	for _, r := range runs {
		if r.Err != nil {
			return nil, fmt.Errorf("%s/%s: %w", r.Bench, r.Scheme, r.Err)
		}
		row := byBench[r.Bench]
		if row == nil {
			row = &TableRow{Bench: r.Bench, Class: r.Class,
				Rate: map[string]float64{}, Runs: map[string]pipeline.Stats{}}
			byBench[r.Bench] = row
			order = append(order, r.Bench)
		}
		row.Rate[r.Scheme] = 100 * r.Stats.MispredictRate()
		row.Runs[r.Scheme] = r.Stats
	}
	for _, n := range order {
		t.Rows = append(t.Rows, *byBench[n])
	}
	return t, nil
}

// Average returns the arithmetic-mean misprediction rate for a scheme.
func (t *Table) Average(s string) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range t.Rows {
		sum += r.Rate[s]
	}
	return sum / float64(len(t.Rows))
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

// Breakdown is the Figure 6b decomposition for one benchmark: the total
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

// BreakdownTable computes Figure 6b from predicate-scheme runs. Runs
// are selected semantically — only a predicate-predictor pipeline
// accumulates shadow conventional-predictor statistics — so a
// predpred run under a configuration mutator (a split PVT, the
// idealized variants) is included like any other, without name
// matching.
func BreakdownTable(runs []Run) ([]Breakdown, error) {
	var out []Breakdown
	for _, r := range runs {
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
