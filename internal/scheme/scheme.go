// Package scheme holds each prediction scheme's predictor side once,
// for both execution modes: the second-level tables with their per-PC
// sites, built from a Config, and the calls of the scheme's protocol.
// The cycle-level pipeline makes each call at the cycle its stage acts,
// and trace replay at the lag it models, so the modes differ only in
// when each call happens (DESIGN.md "Execution modes" tabulates it):
// Predict at fetch, Decide at rename (§3.2), Resolve at writeback
// (§3.3), Commit (a compare's Train and Retire) at commit, and Squash
// on a wrong path. Score is a conventional predictor's protocol at
// zero lag. Calls go to the concrete types; no interface sits on a
// per-event path.
package scheme

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/peppa"
	"repro/internal/predictor"
	"repro/internal/program"
	"repro/internal/trace"
)

// Config is the predictor-side projection of a config.Config: exactly
// the fields the schemes and the target predictors read. The rest of a
// Config (widths, windows, caches, latencies, the first-level gshare,
// the recovery penalty) shapes only the pipeline's timing, so equal
// Configs replay to bit-identical statistics on every program.
type Config struct {
	Scheme           config.Scheme
	Predication      config.PredicationMode
	L2PredBytes      int
	L2PredGHRBits    uint
	L2PredLHRBits    uint
	L2PredLHTBits    uint
	ConfBits         uint
	RASEntries       int
	IdealNoAlias     bool
	IdealPerfectGHR  bool
	SplitPVT         bool
	DisableGHRRepair bool
}

// ConfigOf projects a configuration onto its predictor-side fields. It
// does not validate: callers run the full Config.Validate first.
func ConfigOf(c config.Config) Config {
	return Config{
		Scheme:           c.Scheme,
		Predication:      c.Predication,
		L2PredBytes:      c.L2PredBytes,
		L2PredGHRBits:    c.L2PredGHRBits,
		L2PredLHRBits:    c.L2PredLHRBits,
		L2PredLHTBits:    c.L2PredLHTBits,
		ConfBits:         c.ConfBits,
		RASEntries:       c.RASEntries,
		IdealNoAlias:     c.IdealNoAlias,
		IdealPerfectGHR:  c.IdealPerfectGHR,
		SplitPVT:         c.SplitPVT,
		DisableGHRRepair: c.DisableGHRRepair,
	}
}

// InstAddr maps an instruction index to its byte address, which every
// predictor folds into an index and the pipeline's I-cache fetches.
// IA-64 packs 3 instructions in a 16-byte bundle; the model charges a
// uniform ~5 bytes, rounded to 8, above a code base that keeps I- and
// D-streams from thrashing each other artificially.
func InstAddr(pc int) uint64 { return 0x4000_0000 + uint64(pc)*8 }

// Kinds returns the trace record kind of every instruction of prog
// (trace.KindOf), which says the sites each predictor builds, in dst's
// storage when it has room.
func Kinds(dst []uint8, prog *program.Program) []uint8 {
	kinds := dst[:0]
	for i := range prog.Insts {
		kinds = append(kinds, trace.KindOf(&prog.Insts[i]))
	}
	return kinds
}

// Sites builds the site of every instruction of kind kind, each at its
// PC, and leaves the others zero, in dst's storage when it has room.
func Sites[S any](dst []S, kinds []uint8, kind uint8, site func(addr uint64) S) []S {
	s := dst[:0]
	for pc, k := range kinds {
		var v S
		if k == kind {
			v = site(InstAddr(pc))
		}
		s = append(s, v)
	}
	return s
}

// history is a scheme's second-level global history: the speculative
// one Predict pushes predictions onto, and the retired one Commit
// pushes outcomes onto, which Predict reads instead under
// IdealPerfectGHR. pushes counts the live speculative pushes: a push's
// ordinal is the count before it, Squash takes it back and Commit
// leaves it alone, so a live push finds its bit pushes-ord-1 deep.
type history struct {
	spec, retired predictor.History
	pushes        int64
	perfect       bool
}

func newHistory(bits uint, perfect bool) history {
	return history{spec: predictor.History{N: bits}, retired: predictor.History{N: bits}, perfect: perfect}
}

func (h *history) read() uint64 {
	if h.perfect {
		return h.retired.Bits
	}
	return h.spec.Bits
}

// push pushes a predicted bit and returns the restore point and the
// push's ordinal.
func (h *history) push(v bool) (snap uint64, ord int64) {
	snap, ord = h.spec.Bits, h.pushes
	h.pushes++
	h.spec.Push(v)
	return snap, ord
}

func (h *history) pop(snap uint64) {
	h.spec.Restore(snap)
	h.pushes--
}

// Pushes returns the number of live speculative pushes.
func (h *history) Pushes() int64 { return h.pushes }

// Conventional is a conventional second-level predictor (Table 1's
// perceptron over global and local history, indexed by branch PC): the
// conventional scheme's own, or the predicate scheme's Figure 6b
// shadow.
type Conventional struct {
	history
	tl    *predictor.TwoLevel
	sites []predictor.TwoLevelSite // per PC; set at conditional branches
}

// convIdeal reports whether the conventional predictor a configuration
// of c reads is idealized: the conventional scheme's follows c, while
// the predicate scheme's shadow is always the real table of its budget.
func convIdeal(c Config) bool {
	return c.Scheme == config.SchemeConventional && c.IdealNoAlias
}

// ConvOf builds the conventional predictor a configuration of c reads,
// for a program whose instructions' record kinds are kinds: the
// conventional scheme's own, the predicate scheme's shadow, or nil
// under PEP-PA.
func ConvOf(c Config, kinds []uint8) *Conventional {
	if c.Scheme == config.SchemePEPPA {
		return nil
	}
	cv := new(Conventional)
	cv.Reset(c, kinds)
	return cv
}

// Reset makes cv the predictor ConvOf(c, kinds) builds, for a c whose
// scheme reads one, reusing cv's tables.
func (cv *Conventional) Reset(c Config, kinds []uint8) {
	own := c.Scheme == config.SchemeConventional
	if cv.tl == nil {
		cv.tl = new(predictor.TwoLevel)
	}
	cv.tl.Reset(c.L2PredBytes, c.L2PredGHRBits, c.L2PredLHRBits, c.L2PredLHTBits, convIdeal(c))
	cv.history = newHistory(c.L2PredGHRBits, own && c.IdealPerfectGHR)
	cv.sites = Sites(cv.sites, kinds, trace.EvCondBr, cv.tl.Site)
}

// Predict predicts the conditional branch at pc into lk and pushes the
// prediction, returning the restore point and the push's ordinal.
func (cv *Conventional) Predict(lk *predictor.TwoLevelLookup, pc int) (snap uint64, ord int64) {
	*lk = cv.tl.Predict(cv.sites[pc], cv.read())
	return cv.push(lk.Taken)
}

// Resolve replaces a mispredicted branch's own push, restored to snap,
// with its outcome: its recovery has squashed every younger push.
func (cv *Conventional) Resolve(snap uint64, taken bool) {
	cv.spec.Restore(snap)
	cv.spec.Push(taken)
}

// Commit trains the branch lk predicted with its outcome and retires
// the outcome.
func (cv *Conventional) Commit(lk *predictor.TwoLevelLookup, taken bool) {
	cv.tl.Train(*lk, taken)
	cv.retired.Push(taken)
}

// Squash undoes the Predict of a squashed branch, youngest first.
func (cv *Conventional) Squash(lk *predictor.TwoLevelLookup, snap uint64) {
	cv.tl.Undo(*lk)
	cv.pop(snap)
}

// Score is Predict, Resolve and Commit at zero lag, in commit order,
// and reports whether the branch at pc was mispredicted. Every pushed
// bit is then an outcome, so the speculative history is the retired
// one too, and only it is kept.
func (cv *Conventional) Score(pc int, taken bool) bool {
	lk := cv.tl.Predict(cv.sites[pc], cv.spec.Bits)
	cv.tl.Train(lk, taken)
	cv.spec.Push(taken)
	return lk.Taken != taken
}

// Predicate is the predicate scheme's predictor side: the predicate
// predictor (package core) under its global history.
type Predicate struct {
	history
	pp        *core.Predictor
	sites     []core.Site // per PC; set at compares
	selective bool        // PredicationSelective
	repair    bool        // the §3.3 repair (not DisableGHRRepair)
}

func coreConfig(c Config) core.Config {
	return core.Config{
		SizeBytes: c.L2PredBytes,
		GHRBits:   c.L2PredGHRBits,
		LHRBits:   c.L2PredLHRBits,
		LHTBits:   c.L2PredLHTBits,
		ConfBits:  c.ConfBits,
		Ideal:     c.IdealNoAlias,
		SplitPVT:  c.SplitPVT,
	}
}

// NewPredicate builds the predicate scheme's side of c for a program
// whose instructions' record kinds are kinds.
func NewPredicate(c Config, kinds []uint8) *Predicate {
	p := new(Predicate)
	p.Reset(c, kinds)
	return p
}

// Reset makes p the predictor side NewPredicate(c, kinds) builds,
// reusing p's tables.
func (p *Predicate) Reset(c Config, kinds []uint8) {
	if p.pp == nil {
		p.pp = new(core.Predictor)
	}
	p.pp.Reset(coreConfig(c))
	p.history = newHistory(c.L2PredGHRBits, c.IdealPerfectGHR)
	p.sites = Sites(p.sites, kinds, trace.EvCompare, p.pp.Site)
	p.selective = c.Predication == config.PredicationSelective
	p.repair = !c.DisableGHRRepair
}

// Predict predicts both destinations of the compare at pc into lk and
// pushes the first predicted value, once per compare (§3.3), returning
// the restore point and the push's ordinal.
func (p *Predicate) Predict(lk *core.Lookup, pc int) (snap uint64, ord int64) {
	p.pp.Predict(lk, p.sites[pc], p.read())
	return p.push(lk.Val1)
}

// Guard is how rename handles a guarded instruction that is not a
// branch.
type Guard uint8

const (
	Select  Guard = iota // a select micro-op: executes, and may keep its old destination value
	Unguard              // the guard is known true: executes unguarded
	Cancel               // the guard is known false: nullified
)

// Decide is selective predication (§3.2): a guard usable at rename,
// computed or confidently predicted, unguards the instruction when its
// value is true and cancels it when false. Any other guard, or select
// predication, makes a select micro-op.
func (p *Predicate) Decide(usable, val bool) Guard {
	switch {
	case !p.selective || !usable:
		return Select
	case val:
		return Unguard
	}
	return Cancel
}

// Resolve is the §3.3 repair at a compare's writeback: its first
// computed value overwrites the bit its push ord left, under the
// younger pushes still live. Compares predicted in between kept the
// wrong bit, the residual cost the paper measures.
func (p *Predicate) Resolve(ord int64, actual1 bool) {
	if p.repair {
		p.spec.SetBit(uint(p.pushes-ord-1), actual1)
	}
}

// Train trains the rows and confidence counters of the compare lk
// predicted with its computed values.
func (p *Predicate) Train(lk *core.Lookup, res1, res2 bool) { p.pp.Train(lk, res1, res2) }

// Retire pushes a trained compare's first computed value onto the
// retired history.
func (p *Predicate) Retire(res1 bool) { p.retired.Push(res1) }

// Squash undoes the Predict of a squashed compare, youngest first.
func (p *Predicate) Squash(lk *core.Lookup, snap uint64) {
	p.pp.Undo(lk)
	p.pop(snap)
}

// Misses counts the predictions of lk its compare's computed values
// contradict.
func Misses(lk *core.Lookup, res1, res2 bool) uint64 {
	var n uint64
	if lk.Val1 != res1 {
		n++
	}
	if lk.Val2 != res2 {
		n++
	}
	return n
}

// PEPPA is the PEP-PA scheme's predictor side.
type PEPPA struct {
	pep   *peppa.Predictor
	sites []peppa.Site // per PC; set at conditional branches
}

// NewPEPPA builds PEP-PA for a program whose instructions' record
// kinds are kinds.
func NewPEPPA(kinds []uint8) PEPPA {
	var p PEPPA
	p.Reset(kinds)
	return p
}

// Reset makes p the predictor NewPEPPA(kinds) builds, reusing its
// tables.
func (p *PEPPA) Reset(kinds []uint8) {
	if p.pep == nil {
		p.pep = new(peppa.Predictor)
	}
	p.pep.Reset(peppa.DefaultConfig())
	p.sites = Sites(p.sites, kinds, trace.EvCondBr, p.pep.Site)
}

// Predict predicts the conditional branch at pc with the local history
// its guard's previous value sel selects.
func (p *PEPPA) Predict(pc int, sel bool) peppa.Lookup { return p.pep.Predict(p.sites[pc], sel) }

// Commit trains the branch lk predicted with its outcome.
func (p *PEPPA) Commit(lk *peppa.Lookup, taken bool) { p.pep.Update(lk, taken) }

// Squash undoes the Predict of a squashed branch.
func (p *PEPPA) Squash(lk *peppa.Lookup) { p.pep.Undo(lk) }

// Partitions returns the aliasing partitions the predictors of c place
// a program's sites in, its instructions' record kinds being kinds: the
// conditional branches' in the conventional predictor ConvOf builds
// (nil under PEP-PA), and the compare destinations', row1 and row2 of
// each compare in PC order, in the PVT (nil but for the predicate
// scheme). They come from the placements the sites are built with,
// computed without a table.
func Partitions(c Config, kinds []uint8) (branches, dests []int32) {
	conv, pred := c.Scheme != config.SchemePEPPA, c.Scheme == config.SchemePredicate
	var brRows, destRows []int
	g := predictor.NewGeometry(c.L2PredBytes, c.L2PredGHRBits, c.L2PredLHRBits, convIdeal(c))
	l := core.NewLayout(coreConfig(c))
	for pc, kind := range kinds {
		switch {
		case kind == trace.EvCondBr && conv:
			brRows = append(brRows, g.Place(InstAddr(pc)))
		case kind == trace.EvCompare && pred:
			r1, r2 := l.Place(InstAddr(pc))
			destRows = append(destRows, r1, r2)
		}
	}
	if conv {
		branches = predictor.Partition(brRows)
	}
	if pred {
		dests = predictor.Partition(destRows)
	}
	return branches, dests
}
