// Package bench generates the 22-benchmark synthetic workload suite
// standing in for SPEC2000 with the MinneSpec inputs (11 integer + 11
// floating point, §4.1). Real SPEC IA-64 binaries are unavailable, so
// each benchmark is a seeded program whose *branch-outcome statistics*
// are controlled explicitly: loop branches, biased branches, correlated
// branch pairs, pattern (local-history) branches, LCG-driven
// hard-to-predict branches, if-convertible hammocks and exit regions,
// hoisted compares (early-resolution candidates), plus memory and FP
// work calibrated per benchmark. Branch-predictor studies depend on
// exactly these statistics, which is what makes the substitution
// behaviour-preserving (see DESIGN.md).
package bench

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/program"
)

// Spec parameterizes one synthetic benchmark. Specs are also a user
// input: Load reads one from a JSON file and Validate range
// checks every field, so sensitivity studies can target branch
// behaviours the built-in suite never exercises. The zero values of
// PhasePeriod and IndirTargets select the documented defaults.
type Spec struct {
	Name  string `json:"name"`
	Class string `json:"class"` // "int" or "fp"
	Seed  int64  `json:"seed"`

	Sites     int     `json:"sites"`     // feature sites per loop body (static footprint)
	HardFrac  float64 `json:"hardFrac"`  // fraction of sites with LCG-driven hard branches
	BiasFrac  float64 `json:"biasFrac"`  // fraction with highly biased data branches
	CorrFrac  float64 `json:"corrFrac"`  // fraction with correlated branch pairs
	PatFrac   float64 `json:"patFrac"`   // fraction with periodic (local-history) branches
	FPFrac    float64 `json:"fpFrac"`    // fraction with FP work
	MemFrac   float64 `json:"memFrac"`   // fraction with memory walks
	PhaseFrac float64 `json:"phaseFrac"` // fraction with phase-switching branches (periodic regime changes)
	IndirFrac float64 `json:"indirFrac"` // fraction with indirect-branch dispatch tables
	HoistFrac float64 `json:"hoistFrac"` // probability a compare is hoisted away from its branch
	ArrayKB   int     `json:"arrayKB"`   // data footprint per array (power of two)
	Iters     int64   `json:"iters"`     // outer loop trip count (harness stops on commit budget)

	// PhasePeriod is the regime length of phase-switching sites in
	// outer-loop iterations (power of two; 0 = DefaultPhasePeriod).
	// Every PhasePeriod iterations the bias of every phase branch
	// inverts, stressing predictor training and the delayed-training /
	// GHR-repair windows of the trace replay engine.
	PhasePeriod int64 `json:"phasePeriod"`
	// IndirTargets is the jump-table size of indirect-branch sites
	// (power of two, 2..16; 0 = DefaultIndirTargets).
	IndirTargets int `json:"indirTargets"`
}

// Defaults for the zero values of the optional behaviour knobs.
const (
	DefaultPhasePeriod  = 256
	DefaultIndirTargets = 4
)

// withDefaults resolves the zero values of optional knobs; Build and
// Validate both see the same effective spec.
func (s Spec) withDefaults() Spec {
	if s.PhasePeriod == 0 {
		s.PhasePeriod = DefaultPhasePeriod
	}
	if s.IndirTargets == 0 {
		s.IndirTargets = DefaultIndirTargets
	}
	return s
}

// Suite returns the 22-benchmark suite: 11 integer and 11 floating
// point, in the paper's presentation order. Parameters are tuned so the
// integer programs span easy (gzip-like) to very hard (twolf-like)
// branch behaviour, while the FP programs are loop-dominated and far
// more predictable, as in SPEC2000.
func Suite() []Spec {
	base := func(name, class string, seed int64) Spec {
		return Spec{
			Name: name, Class: class, Seed: seed,
			Sites: 16, HardFrac: 0.15, BiasFrac: 0.25, CorrFrac: 0.15,
			PatFrac: 0.15, FPFrac: 0.0, MemFrac: 0.2, HoistFrac: 0.55,
			ArrayKB: 64, Iters: 1 << 40,
		}
	}
	specs := []Spec{}

	// --- Integer ---
	s := base("gzip", "int", 101)
	s.BiasFrac, s.HardFrac, s.PatFrac = 0.4, 0.1, 0.2
	specs = append(specs, s)

	s = base("vpr", "int", 102)
	s.HardFrac, s.CorrFrac, s.Sites = 0.3, 0.2, 18
	specs = append(specs, s)

	s = base("gcc", "int", 103)
	s.Sites, s.HardFrac, s.BiasFrac = 30, 0.2, 0.3
	specs = append(specs, s)

	s = base("mcf", "int", 104)
	s.MemFrac, s.ArrayKB, s.HardFrac = 0.45, 2048, 0.2
	specs = append(specs, s)

	s = base("crafty", "int", 105)
	s.Sites, s.CorrFrac, s.HardFrac = 26, 0.3, 0.15
	specs = append(specs, s)

	s = base("parser", "int", 106)
	s.HardFrac, s.CorrFrac, s.Sites = 0.25, 0.25, 22
	specs = append(specs, s)

	s = base("perlbmk", "int", 107)
	s.Sites, s.BiasFrac, s.PatFrac = 24, 0.35, 0.2
	specs = append(specs, s)

	s = base("gap", "int", 108)
	s.PatFrac, s.BiasFrac = 0.3, 0.3
	specs = append(specs, s)

	s = base("vortex", "int", 109)
	s.BiasFrac, s.Sites, s.HardFrac = 0.45, 24, 0.05
	specs = append(specs, s)

	s = base("bzip2", "int", 110)
	s.HardFrac, s.BiasFrac, s.MemFrac = 0.3, 0.3, 0.3
	specs = append(specs, s)

	// twolf: the paper's hardest case — many unpredictable compares,
	// little hoisting (few early-resolved branches), heavy aliasing.
	s = base("twolf", "int", 111)
	s.Sites, s.HardFrac, s.CorrFrac, s.HoistFrac = 30, 0.45, 0.1, 0.05
	s.MemFrac = 0
	specs = append(specs, s)

	// --- Floating point ---
	fp := func(name string, seed int64) Spec {
		f := base(name, "fp", seed)
		f.FPFrac, f.HardFrac, f.BiasFrac = 0.4, 0.04, 0.2
		f.PatFrac, f.CorrFrac, f.HoistFrac = 0.25, 0.1, 0.75
		f.MemFrac = 0
		f.Sites = 14
		return f
	}
	s = fp("wupwise", 201)
	specs = append(specs, s)
	s = fp("swim", 202)
	s.ArrayKB = 1024
	specs = append(specs, s)
	s = fp("mgrid", 203)
	s.PatFrac = 0.3
	specs = append(specs, s)
	s = fp("applu", 204)
	s.Sites = 18
	specs = append(specs, s)
	s = fp("mesa", 205)
	s.HardFrac, s.BiasFrac = 0.12, 0.3 // most branchy of the FP set
	specs = append(specs, s)
	s = fp("galgel", 206)
	s.PatFrac = 0.35
	specs = append(specs, s)
	s = fp("art", 207)
	s.HardFrac = 0.1
	specs = append(specs, s)
	s = fp("equake", 208)
	s.ArrayKB = 512
	specs = append(specs, s)
	s = fp("facerec", 209)
	s.CorrFrac = 0.2
	specs = append(specs, s)
	s = fp("ammp", 210)
	s.HardFrac = 0.08
	specs = append(specs, s)
	s = fp("lucas", 211)
	s.PatFrac, s.FPFrac = 0.3, 0.5
	specs = append(specs, s)

	return specs
}

// Names returns the suite benchmark names in stable sorted order.
func Names() []string {
	specs := Suite()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// Find returns the spec with the given name. An unknown name is an
// error that lists the valid suite names (sorted), so a typo on a CLI
// flag or in a workload definition is immediately actionable.
func Find(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown benchmark %q (suite: %s)", name, strings.Join(Names(), ", "))
}

// Register plan for generated programs. Registers below 10 are global
// scaffolding; predicates rotate through a window to create realistic
// predicate-register reuse (aliasing in the predictors).
const (
	rBaseA  isa.Reg     = 1 // array A base
	rBaseB  isa.Reg     = 2 // array B base
	rIter   isa.Reg     = 3 // outer induction variable
	rLimit  isa.Reg     = 4 // outer trip count
	rLCG    isa.Reg     = 5 // program-runtime LCG state
	rTmp    isa.Reg     = 6
	rTmp2   isa.Reg     = 7
	rVal    isa.Reg     = 8
	rFlag   isa.Reg     = 9
	rAcc    isa.Reg     = 62 // global accumulator (loop-carried dependence chain)
	rSite0  isa.Reg     = 16 // per-site working registers: 16..47
	fAcc    isa.Reg     = 1  // FP accumulators f1..f8
	pLoop   isa.PredReg = 1  // outer loop predicate pair: p1/p2
	pStage0 isa.PredReg = 3  // stage predicate pairs: p3..p14
	pSite0  isa.PredReg = 15
	pSiteN  isa.PredReg = 60
)

// stageReq describes a loop-carried condition register: its value is
// refreshed at the end of each loop body from a PRIVATE xorshift
// generator (so it does not serialize behind the global LCG chain),
// which means compares testing it at the start of the next iteration
// have long-ready sources and execute immediately — the
// hoisted-compare codegen that makes branches early-resolvable (§3.1).
// Registers r10..r15 hold stage values; r56..r61 their generators.
type stageReq struct {
	reg    isa.Reg     // condition value (0/1)
	rng    isa.Reg     // private xorshift state
	pT, pF isa.PredReg // predicates computed by the hoisted compare
	shift  int64
}

// corrItem is a deferred correlated branch: a branch emitted a few
// sites after the compare whose condition it repeats, so the
// correlation is several global-history bits away (learnable by the
// perceptrons, removed from a conventional predictor's history once the
// source hammock is if-converted).
type corrItem struct {
	v    isa.Reg // reserved register carrying the condition bit
	left int     // sites until emission
	inv  bool    // branch on the inverted condition
}

// gen tracks generation state.
type gen struct {
	b        *program.Builder
	rng      *rand.Rand
	spec     Spec
	nextP    isa.PredReg
	nextR    isa.Reg
	nextCorr int // round-robin over reserved correlation registers r48..r55
	nextLbl  int
	pending  []corrItem
	stages   []stageReq
	// deterministic hoisting accounting for hard sites
	hardSeen   int
	hardStaged int
}

// corrCarrier allocates a reserved correlation-carrier register.
func (g *gen) corrCarrier() isa.Reg {
	r := isa.Reg(48 + g.nextCorr%8)
	g.nextCorr++
	return r
}

// stage allocates (or reuses) a loop-carried hoisted compare: its
// predicates are produced at the end of the previous iteration, a full
// loop body ahead of the consuming branch.
func (g *gen) stage() stageReq {
	if len(g.stages) < 6 {
		i := len(g.stages)
		g.stages = append(g.stages, stageReq{
			reg:   isa.Reg(10 + i),
			rng:   isa.Reg(56 + i),
			pT:    pStage0 + isa.PredReg(2*i),
			pF:    pStage0 + isa.PredReg(2*i) + 1,
			shift: int64(13 + g.rng.Intn(28)),
		})
		return g.stages[i]
	}
	return g.stages[g.rng.Intn(len(g.stages))]
}

// xorshift advances a private generator register in place (all
// single-cycle ops, so a per-site chain never becomes the critical
// path, unlike the global LCG).
func (g *gen) xorshift(r isa.Reg) {
	b := g.b
	t := g.reg()
	b.ShlI(t, r, 13)
	b.Xor(r, r, t)
	b.ShrI(t, r, 7)
	b.Xor(r, r, t)
	b.ShlI(t, r, 17)
	b.Xor(r, r, t)
}

func (g *gen) label(prefix string) string {
	g.nextLbl++
	return fmt.Sprintf("%s_%d", prefix, g.nextLbl)
}

// predPair allocates a rotating (pTrue, pFalse) predicate pair.
func (g *gen) predPair() (isa.PredReg, isa.PredReg) {
	p := g.nextP
	g.nextP += 2
	if g.nextP >= pSiteN {
		g.nextP = pSite0
	}
	return p, p + 1
}

// reg allocates a rotating working register.
func (g *gen) reg() isa.Reg {
	r := g.nextR
	g.nextR++
	if g.nextR >= 48 { // r48..r55: correlation carriers; r56..r61: stage generators
		g.nextR = rSite0
	}
	return r
}

// Build generates the program for a spec.
func Build(spec Spec) *program.Program {
	spec = spec.withDefaults()
	g := &gen{
		b:     program.NewBuilder(spec.Name),
		rng:   rand.New(rand.NewSource(spec.Seed)),
		spec:  spec,
		nextP: pSite0,
		nextR: rSite0,
	}
	b := g.b

	words := int64(spec.ArrayKB) * 1024 / 8
	b.MovI(rBaseA, 0x100000)
	b.MovI(rBaseB, 0x100000+words*8+0x1000)
	b.MovI(rLCG, spec.Seed*2654435761+7)
	b.MovI(rIter, 0)
	b.MovI(rLimit, spec.Iters)
	for f := isa.Reg(1); f <= 8; f++ {
		b.FMovI(f, 1.0+float64(f)/16)
	}
	for i := int64(0); i < 6; i++ {
		b.MovI(isa.Reg(56+i), spec.Seed*7919+i*104729+1)
	}

	// Initialize array A with LCG data (the benchmark's input set).
	initN := words
	if initN > 4096 {
		initN = 4096 // fill a prefix; index masking keeps accesses inside
	}
	b.MovI(rTmp, 0)
	b.Label("init")
	g.lcgStep()
	b.ShlI(rTmp2, rTmp, 3)
	b.Add(rTmp2, rBaseA, rTmp2)
	b.Store(rTmp2, 0, rLCG)
	b.AddI(rTmp, rTmp, 1)
	b.CmpI(isa.RelLT, isa.CmpUnc, pLoop, pLoop+1, rTmp, initN)
	b.G(pLoop).Br("init")

	// Main loop body: a fixed sequence of feature sites. The mix is
	// deterministic — exact per-type counts from the spec fractions,
	// shuffled by the benchmark seed — so tuned behaviour does not
	// drift with seed luck.
	b.MovI(rFlag, 0)
	b.Label("main")
	for _, k := range g.siteMix() {
		g.emitSite(k)
	}
	b.AddI(rIter, rIter, 1)
	b.Cmp(isa.RelLT, isa.CmpUnc, pLoop, pLoop+1, rIter, rLimit)
	b.G(pLoop).Br("main")
	b.Halt()

	return b.Program()
}

// lcgStep advances the runtime LCG in rLCG.
func (g *gen) lcgStep() {
	g.b.MulI(rLCG, rLCG, 6364136223846793005)
	g.b.AddI(rLCG, rLCG, 1442695040888963407)
}

// site template identifiers for the deterministic mix.
const (
	siteHard = iota
	siteBias
	siteCorr
	sitePattern
	siteFP
	siteMem
	sitePhase
	siteIndirect
	siteLoop
)

// siteAlloc is one family's allocation in the deterministic site mix.
type siteAlloc struct {
	kind  int
	field string // spec field name, for validation diagnostics
	frac  float64
	n     int // sites actually allocated after the Sites cap
}

// allocSites computes the per-family site allocation: exact rounded
// counts from the spec fractions, truncated in declaration order once
// the Sites budget is exhausted (several built-in benchmarks
// deliberately oversubscribe by a site or two; the remainder of an
// undersubscribed budget is filled with inner loops). Validate uses
// the same allocation to reject specs whose requested families would
// be truncated to nothing.
func allocSites(s Spec) []siteAlloc {
	fams := []siteAlloc{
		{kind: siteHard, field: "HardFrac", frac: s.HardFrac},
		{kind: siteBias, field: "BiasFrac", frac: s.BiasFrac},
		{kind: siteCorr, field: "CorrFrac", frac: s.CorrFrac},
		{kind: sitePattern, field: "PatFrac", frac: s.PatFrac},
		{kind: siteFP, field: "FPFrac", frac: s.FPFrac},
		{kind: siteMem, field: "MemFrac", frac: s.MemFrac},
		{kind: sitePhase, field: "PhaseFrac", frac: s.PhaseFrac},
		{kind: siteIndirect, field: "IndirFrac", frac: s.IndirFrac},
	}
	used := 0
	for i := range fams {
		n := int(fams[i].frac*float64(s.Sites) + 0.5)
		if n > s.Sites-used {
			n = s.Sites - used
		}
		fams[i].n = n
		used += n
	}
	return fams
}

// siteMix builds the deterministic per-body site-type sequence from
// the allocation (remainder filled with inner loops), shuffled by the
// benchmark seed.
func (g *gen) siteMix() []int {
	var mix []int
	for _, f := range allocSites(g.spec) {
		for i := 0; i < f.n; i++ {
			mix = append(mix, f.kind)
		}
	}
	for len(mix) < g.spec.Sites {
		mix = append(mix, siteLoop)
	}
	g.rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// emitSite emits one feature site, first emitting any correlated
// branches whose delay has elapsed.
func (g *gen) emitSite(kind int) {
	var still []corrItem
	for _, c := range g.pending {
		c.left--
		if c.left <= 0 {
			g.emitCorrBranch(c)
		} else {
			still = append(still, c)
		}
	}
	g.pending = still

	switch kind {
	case siteHard:
		g.hardDiamond()
	case siteBias:
		g.biasedBranch()
	case siteCorr:
		g.correlatedPair()
	case sitePattern:
		g.patternBranch()
	case siteFP:
		g.fpWork()
	case siteMem:
		g.memWalk()
	case sitePhase:
		g.phaseBranch()
	case siteIndirect:
		g.indirectDispatch()
	default:
		g.loopNest()
	}
}

// hoistFiller optionally inserts independent ALU work between a compare
// and its branch, making the branch a candidate for early resolution.
func (g *gen) hoistFiller() {
	if g.rng.Float64() >= g.spec.HoistFrac {
		return
	}
	r := g.reg()
	n := g.rng.Intn(8) + 6
	g.b.MovI(r, int64(g.rng.Intn(100)))
	for i := 0; i < n; i++ {
		g.b.AddI(r, r, 1)
	}
}

// hardDiamond: an LCG bit drives an unpredictable diamond, the
// if-conversion target workload of the paper. With probability
// HoistFrac the condition is a loop-carried staged value, so the
// compare's sources are ready at rename and the branch becomes an
// early-resolution candidate (hoisted-compare codegen, §3.1).
func (g *gen) hardDiamond() {
	b, rng := g.b, g.rng
	var pT, pF isa.PredReg
	var v isa.Reg
	g.hardSeen++
	staged := stageReq{}
	isStaged := false
	if float64(g.hardStaged) < g.spec.HoistFrac*float64(g.hardSeen) {
		g.hardStaged++
		// Software-pipelined hoisted compare: consume the predicates
		// produced just after this site in the PREVIOUS iteration — a
		// full loop body of distance, so the compare has executed long
		// before this branch renames (the early-resolution case, §3.1).
		st := g.stage()
		staged, isStaged = st, true
		pT, pF, v = st.pT, st.pF, st.reg
	} else {
		g.lcgStep()
		v = g.reg()
		b.ShrI(v, rLCG, int64(24+rng.Intn(16)))
		b.AndI(v, v, 1)
		pT, pF = g.predPair()
		b.CmpI(isa.RelNE, isa.CmpUnc, pT, pF, v, 0)
		g.hoistFiller()
	}
	els, join := g.label("els"), g.label("join")
	d := g.reg()
	b.G(pT).Br(els)
	for i := 0; i < rng.Intn(4)+1; i++ {
		b.AddI(d, d, int64(i+1))
	}
	b.Br(join)
	b.Label(els)
	for i := 0; i < rng.Intn(4)+1; i++ {
		b.SubI(d, d, int64(i+2))
	}
	b.Label(join)
	if isStaged {
		// Compute the NEXT iteration's condition and predicates now.
		g.xorshift(staged.rng)
		b.ShrI(staged.reg, staged.rng, staged.shift)
		b.AndI(staged.reg, staged.reg, 1)
		b.CmpI(isa.RelNE, isa.CmpUnc, staged.pT, staged.pF, staged.reg, 0)
	}
}

// biasedBranch: a data-dependent branch taken with probability
// 1 - 2^-k, as an if-then hammock. The guarded arm updates the global
// accumulator rAcc, putting it on a loop-carried dependence chain: once
// if-converted, a select micro-op here serializes the accumulator
// behind the (load-dependent) compare, while selective predication
// unguards the add and keeps the chain short — the IPC effect of §3.2.
func (g *gen) biasedBranch() {
	b, rng := g.b, g.rng
	v := g.reg()
	g.loadA(v)
	k := rng.Intn(3) + 3 // 3..5 bits: 87..97% biased
	b.AndI(v, v, int64(1<<k-1))
	pT, pF := g.predPair()
	// "rare" path when all k bits are zero
	b.CmpI(isa.RelEQ, isa.CmpUnc, pT, pF, v, 0)
	g.hoistFiller()
	skip := g.label("skip")
	b.G(pT).Br(skip) // rarely taken
	b.AddI(rAcc, rAcc, 1)
	b.Label(skip)
}

// correlatedPair: an unpredictable, if-convertible hammock whose
// condition bit is stashed in a reserved register; a second branch on
// the same condition is emitted a few sites later (emitCorrBranch).
// After if-conversion removes the first branch, a conventional
// predictor loses the correlation bit from its history, while the
// predicate predictor keeps it through the surviving compare (§3).
func (g *gen) correlatedPair() {
	b, rng := g.b, g.rng
	g.lcgStep()
	v := g.corrCarrier()
	b.ShrI(v, rLCG, int64(20+rng.Intn(12)))
	b.AndI(v, v, 1)

	// First branch: small hammock on v (convertible, hard to predict).
	pT, pF := g.predPair()
	b.CmpI(isa.RelNE, isa.CmpUnc, pT, pF, v, 0)
	d := g.reg()
	skip := g.label("cskip")
	b.G(pT).Br(skip)
	b.AddI(d, d, 7)
	b.Label(skip)

	g.pending = append(g.pending, corrItem{v: v, left: 2 + rng.Intn(4), inv: rng.Intn(2) == 1})
}

// emitCorrBranch emits the delayed second branch of a correlated pair:
// same condition as its source compare, guarding an oversized (never
// converted) block. A dependence on the slow global LCG keeps the
// compare from resolving early, so its prediction must come from
// history correlation.
func (g *gen) emitCorrBranch(c corrItem) {
	b := g.b
	t := g.reg()
	b.AndI(t, rLCG, 0) // always 0, but serializes behind the LCG chain
	b.Or(t, t, c.v)    // t == c.v
	p2T, p2F := g.predPair()
	rel := isa.RelNE
	if c.inv {
		rel = isa.RelEQ
	}
	b.CmpI(rel, isa.CmpUnc, p2T, p2F, t, 0)
	big := g.label("cbig")
	d2 := g.reg()
	b.G(p2T).Br(big)
	for i := 0; i < 16; i++ { // oversized block: never if-converted
		b.AddI(d2, d2, int64(i))
	}
	b.Label(big)
}

// patternBranch: outcome follows a short period (predictable from local
// history): taken except every m-th iteration.
func (g *gen) patternBranch() {
	b, rng := g.b, g.rng
	m := int64(rng.Intn(5) + 2)
	ctr := g.reg()
	b.AddI(ctr, ctr, 1)
	t := g.reg()
	b.Div(t, ctr, g.constReg(m))
	b.Mul(t, t, g.constReg(m))
	b.Sub(t, ctr, t) // t = ctr mod m
	pT, pF := g.predPair()
	b.CmpI(isa.RelNE, isa.CmpUnc, pT, pF, t, 0)
	g.hoistFiller()
	skip := g.label("pskip")
	d := g.reg()
	b.G(pT).Br(skip)
	b.AddI(d, d, 5) // executes once per period
	b.Label(skip)
}

// constReg materializes a small constant into a register.
func (g *gen) constReg(v int64) isa.Reg {
	r := g.reg()
	g.b.MovI(r, v)
	return r
}

// fpWork: floating-point dependency chains ending in an fcmp-guarded
// move, plus an occasional fp-condition branch.
func (g *gen) fpWork() {
	b, rng := g.b, g.rng
	f1 := isa.Reg(1 + rng.Intn(4))
	f2 := isa.Reg(5 + rng.Intn(4))
	b.FMul(f2, f2, f1)
	b.FAdd(f1, f1, f2)
	pT, pF := g.predPair()
	b.FCmp(isa.RelGT, isa.CmpUnc, pT, pF, f1, f2)
	b.G(pT).FMov(f2, f1)
	if rng.Intn(3) == 0 {
		// keep the accumulators bounded to avoid inf skew
		b.FMovI(f1, 1.25)
		b.FMovI(f2, 0.75)
	}
	skip := g.label("fskip")
	d := g.reg()
	b.G(pF).Br(skip)
	b.AddI(d, d, 1)
	b.Label(skip)
}

// memWalk: strided and pseudo-random array traffic exercising the
// cache hierarchy; includes an exit-pattern hammock (search hit).
func (g *gen) memWalk() {
	b, rng := g.b, g.rng
	words := int64(g.spec.ArrayKB) * 1024 / 8
	mask := (words - 1) * 8
	idx := g.reg()
	v := g.reg()
	if rng.Intn(2) == 0 {
		// strided walk
		b.AddI(idx, idx, int64(8*(1+rng.Intn(4))))
		b.AndI(idx, idx, mask)
	} else {
		// pseudo-random indexing off the LCG
		g.lcgStep()
		b.ShrI(idx, rLCG, 16)
		b.AndI(idx, idx, mask&^7)
	}
	addr := g.reg()
	b.Add(addr, rBaseA, idx)
	b.Load(v, addr, 0)
	b.AddI(v, v, 1)
	b.Store(addr, 0, v)

	// Search-hit exit pattern: if low bits match a magic value, set the
	// flag and restart the loop body — an Exit hammock whose
	// unconditional branch becomes a conditional region branch under
	// if-conversion (the paper's Figure 1).
	t := g.reg()
	b.AndI(t, v, 0x3f)
	pT, pF := g.predPair()
	b.CmpI(isa.RelNE, isa.CmpUnc, pT, pF, t, int64(rng.Intn(64)))
	cont := g.label("mcont")
	d := g.reg()
	b.G(pT).Br(cont)
	b.MovI(rFlag, 1)
	b.Br("main")
	b.Label(cont)
	b.AddI(d, d, 2)
	b.AddI(d, d, 3)
}

// phaseBranch: a biased hammock whose bias INVERTS every PhasePeriod
// outer iterations — taken ~87% in even regimes, ~13% in odd ones.
// Each regime flip invalidates everything the predictors learned about
// the site, so phase-heavy workloads stress retraining speed and the
// delayed-training / GHR-repair windows of the trace replay engine,
// a behaviour family the fixed suite never exercises.
func (g *gen) phaseBranch() {
	b, rng := g.b, g.rng
	// regime = (rIter / PhasePeriod) & 1; the period is a validated
	// power of two, so the division is a shift.
	regime := g.reg()
	b.ShrI(regime, rIter, int64(bits.TrailingZeros64(uint64(g.spec.PhasePeriod))))
	b.AndI(regime, regime, 1)
	// c = ((bits & 7) + 7) >> 3: 1 unless all three LCG bits are zero,
	// i.e. set with probability 7/8 — then XOR the regime bit to flip
	// the bias each phase.
	g.lcgStep()
	c := g.reg()
	b.ShrI(c, rLCG, int64(24+rng.Intn(16)))
	b.AndI(c, c, 7)
	b.AddI(c, c, 7)
	b.ShrI(c, c, 3)
	b.Xor(c, c, regime)
	pT, pF := g.predPair()
	b.CmpI(isa.RelNE, isa.CmpUnc, pT, pF, c, 0)
	g.hoistFiller()
	skip := g.label("phskip")
	b.G(pT).Br(skip)
	b.AddI(rAcc, rAcc, 1)
	b.Label(skip)
}

// indirCaseLen is the padded instruction count of one indirect-dispatch
// case block (three filler ops plus the join branch), so the block for
// selector k sits exactly k*indirCaseLen past the table label and the
// target address is pure arithmetic off the materialized label.
const indirCaseLen = 4

// indirectDispatch: a polymorphic indirect branch through an
// IndirTargets-entry jump table, selected by pseudo-random LCG bits —
// the switch-statement workload. The trace format already records
// EvBrInd targets; these sites make the replay engine's indirect-target
// table earn them.
func (g *gen) indirectDispatch() {
	b, rng := g.b, g.rng
	n := g.spec.IndirTargets
	g.lcgStep()
	k := g.reg()
	b.ShrI(k, rLCG, int64(18+rng.Intn(12)))
	b.AndI(k, k, int64(n-1))
	off := g.reg()
	b.MulI(off, k, indirCaseLen)
	tgt := g.reg()
	tbl, join := g.label("itbl"), g.label("ijoin")
	b.MovL(tgt, tbl)
	b.Add(tgt, tgt, off)
	b.BrInd(tgt)
	b.Label(tbl)
	d := g.reg()
	for i := 0; i < n; i++ {
		b.AddI(d, d, int64(i+1))
		b.XorI(d, d, int64(2*i+1))
		b.SubI(d, d, int64(i))
		b.Br(join)
	}
	b.Label(join)
}

// loopNest: a short constant-trip inner loop (classic predictable
// branch) whose body touches array B.
func (g *gen) loopNest() {
	b, rng := g.b, g.rng
	trips := int64(rng.Intn(6) + 2)
	i := g.reg()
	acc := g.reg()
	addr := g.reg()
	b.MovI(i, 0)
	top := g.label("nest")
	b.Label(top)
	b.ShlI(addr, i, 3)
	b.Add(addr, rBaseB, addr)
	b.Load(acc, addr, 0)
	b.AddI(acc, acc, 1)
	b.Store(addr, 0, acc)
	b.AddI(i, i, 1)
	pT, pF := g.predPair()
	b.CmpI(isa.RelLT, isa.CmpUnc, pT, pF, i, trips)
	b.G(pT).Br(top)
}

// loadA loads a pseudo-random element of array A into r.
func (g *gen) loadA(r isa.Reg) {
	b := g.b
	words := int64(g.spec.ArrayKB) * 1024 / 8
	if words > 4096 {
		words = 4096 // stay within the initialized prefix
	}
	mask := (words - 1) * 8
	g.lcgStep()
	idx := g.reg()
	b.ShrI(idx, rLCG, 13)
	b.AndI(idx, idx, mask&^7)
	b.Add(idx, rBaseA, idx)
	b.Load(r, idx, 0)
}
