package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/sim"
)

// traceUse is how a workload meets the on-disk trace cache.
type traceUse int

const (
	noTraces   traceUse = iota // pipeline mode: the cache is never read
	warmTraces                 // primed by one untimed invocation before timing
	coldTraces                 // every invocation starts from an empty cache
)

// experiment is one tagged benchmark × scheme matrix, as cmd/experiments
// runs a figure.
type experiment struct {
	tag     string
	schemes []string
	ifconv  bool
	mutate  func(*sim.Config)
}

// axis is one sweep axis over a registered knob.
type axis struct {
	knob   string
	values []any
}

// workload is one named set of inputs the benchmark runs. Either its
// experiments run one after another into one CSV sink (cmd/experiments),
// or, when axes is set, its single experiment is swept (cmd/sweep).
type workload struct {
	name    string
	why     string
	mode    sim.Mode
	traces  traceUse
	commits uint64
	specs   func(seed int64) ([]sim.BenchSpec, error)
	exps    []experiment
	axes    []axis
}

// profileSteps is the if-conversion profiling budget every CLI defaults to.
const profileSteps = 200000

var (
	two   = []string{"conventional", "predpred"}
	three = []string{"peppa", "conventional", "predpred"}
)

// idealize is the §4.2/§4.3 configuration mutator.
func idealize(c *sim.Config) { c.IdealNoAlias, c.IdealPerfectGHR = true, true }

var workloads = []*workload{
	{
		name:    "figs-pipeline",
		why:     "Fig 5 and Fig 6a on the cycle model over the full suite: where experiments -all spends its minutes",
		mode:    sim.ModePipeline,
		traces:  noTraces,
		commits: 120000,
		specs:   suiteSpecs,
		exps: []experiment{
			{tag: "fig5", schemes: two},
			{tag: "fig6a", schemes: three, ifconv: true},
		},
	},
	{
		name:    "figs-trace",
		why:     "Fig 5, 4.2, Fig 6a and 4.3 replayed from a warm trace cache: decode, frontend and engines do the work",
		mode:    sim.ModeTrace,
		traces:  warmTraces,
		commits: 300000,
		specs:   suiteSpecs,
		exps: []experiment{
			{tag: "fig5", schemes: two},
			{tag: "fig5ideal", schemes: two, mutate: idealize},
			{tag: "fig6a", schemes: three, ifconv: true},
			{tag: "fig6ideal", schemes: two, ifconv: true, mutate: idealize},
		},
	},
	{
		name:    "sweep-grid",
		why:     "the default cmd/sweep over a timing-only axis: 75% of its cells repeat another cell's replay",
		mode:    sim.ModeTrace,
		traces:  warmTraces,
		commits: 300000,
		specs:   suiteSpecs,
		exps:    []experiment{{tag: "sweep", schemes: two}},
		axes: []axis{
			{knob: "pred.bytes", values: []any{75776, 151552}},
			{knob: "mispredict.penalty", values: []any{5, 10, 15, 20}},
		},
	},
	{
		name:    "spec-cold",
		why:     "new phase and indirect specs against an empty trace cache: prepare, record and store dominate",
		mode:    sim.ModeTrace,
		traces:  coldTraces,
		commits: 1000000,
		specs:   customSpecs,
		exps: []experiment{
			{tag: "plain", schemes: []string{"predpred"}},
			{tag: "ifconv", schemes: []string{"predpred"}, ifconv: true},
		},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// suiteSpecs is the 22-benchmark suite under a seed.
func suiteSpecs(seed int64) ([]sim.BenchSpec, error) { return reseed(sim.Benchmarks(), seed) }

//go:embed specs/*.json
var specFiles embed.FS

// phasePeriods spans "flips every few dozen iterations" to "never flips
// within the run", as examples/customworkload does.
var phasePeriods = []int64{16, 64, 256, 1024}

// customSpecs is phasehop at every period plus indirstorm: copies of the
// specs in examples/customworkload, embedded so the workload cannot
// drift when the example does.
func customSpecs(seed int64) ([]sim.BenchSpec, error) {
	phase, err := loadSpec("specs/phasehop.json")
	if err != nil {
		return nil, err
	}
	indir, err := loadSpec("specs/indirstorm.json")
	if err != nil {
		return nil, err
	}
	var specs []sim.BenchSpec
	for _, p := range phasePeriods {
		s := phase
		s.Name = fmt.Sprintf("%s-p%d", phase.Name, p)
		s.PhasePeriod = p
		specs = append(specs, s)
	}
	return reseed(append(specs, indir), seed)
}

func loadSpec(path string) (sim.BenchSpec, error) {
	var s sim.BenchSpec
	data, err := specFiles.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("spec %s: %w", path, err)
	}
	return s, nil
}

// reseed makes a seed's inputs: seed 0 is the specs verbatim; seed N > 0
// adds N·1000 to every spec's Seed and canonicalizes the result.
func reseed(specs []sim.BenchSpec, seed int64) ([]sim.BenchSpec, error) {
	out := make([]sim.BenchSpec, len(specs))
	for i, s := range specs {
		if seed == 0 {
			out[i] = s
			continue
		}
		s.Seed += seed * 1000
		c, err := canonical(s)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// canonical zeroes every fraction bench.CheckSiteAllocation reports as
// allocating no sites. Such a fraction builds nothing, so the program is
// unchanged, but sim.PrepareSpecs only exempts a spec from the check when
// it equals its built-in namesake, Seed included: without this, twolf and
// every FP spec of the suite would be rejected once re-seeded.
func canonical(s sim.BenchSpec) (sim.BenchSpec, error) {
	fracs := []struct {
		field string
		v     *float64
	}{
		{"HardFrac", &s.HardFrac}, {"BiasFrac", &s.BiasFrac}, {"CorrFrac", &s.CorrFrac},
		{"PatFrac", &s.PatFrac}, {"FPFrac", &s.FPFrac}, {"MemFrac", &s.MemFrac},
		{"PhaseFrac", &s.PhaseFrac}, {"IndirFrac", &s.IndirFrac},
	}
	for range fracs {
		err := bench.CheckSiteAllocation(s)
		if err == nil {
			return s, nil
		}
		zeroed := false
		for _, f := range fracs {
			if *f.v != 0 && strings.Contains(err.Error(), ": "+f.field+" = ") {
				*f.v, zeroed = 0, true
				break
			}
		}
		if !zeroed {
			return s, fmt.Errorf("canonicalize spec %q: %w", s.Name, err)
		}
	}
	return s, bench.CheckSiteAllocation(s)
}
