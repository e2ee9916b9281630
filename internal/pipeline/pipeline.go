package pipeline

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emulator"
	"repro/internal/isa"
	"repro/internal/peppa"
	"repro/internal/predictor"
	"repro/internal/program"
)

// instBytes is the footprint of one instruction in the I-cache model
// (IA-64 packs 3 instructions in a 16-byte bundle; we charge a uniform
// ~5 bytes, rounded to 8, per instruction plus a code base offset).
const instBytes = 8

// codeBase separates code addresses from the data addresses benchmarks
// use, so I- and D-streams do not thrash each other artificially.
const codeBase = 0x4000_0000

// Pipeline is the out-of-order core.
type Pipeline struct {
	cfg    config.Config
	prog   *program.Program
	static []static // predecoded instructions, indexed by PC
	mem    *emulator.Memory
	hier   *cache.Hierarchy

	// First-level predictor (all schemes).
	gshare *predictor.Gshare
	brGHR  predictor.History

	// Second-level predictors (one active, per scheme).
	twolevel *predictor.TwoLevel
	pep      *peppa.Predictor
	pp       *core.Predictor
	pGHR     predictor.History // perceptron GHR: branch-fed (conventional), compare-fed (predicate)

	// Retired (commit-order) histories: perfect-GHR idealization and
	// the shadow predictor.
	retiredPGHR predictor.History

	// Shadow conventional predictor for the Figure 6b breakdown
	// (instantiated in predicate-scheme runs).
	shadow    *predictor.TwoLevel
	shadowGHR predictor.History

	ras  *predictor.RAS
	itab *predictor.IndirectTable

	// Machine state.
	cycle       uint64
	seq         int64
	fetchPC     int
	fetchHalted bool
	fetchStall  uint64 // fetch suppressed until this cycle

	// Uop window. Every in-flight uop lives in win, a ring indexed by
	// monotonically increasing positions masked to its power-of-two
	// length. Positions [head, mid) are the ROB and [mid, tail) the
	// front-end queue, both in seq order: fetch appends at tail, rename
	// advances mid, commit advances head, and flushAfter pulls tail (and
	// mid) back. A slot is rewritten only when fetch reuses it, after
	// the uop it held has committed or been squashed; nothing reads a
	// uop once it has left the window. cold holds each slot's
	// scheme-exclusive fetch state, at the same index.
	win             []uop
	cold            []uopCold
	mask            int
	head, mid, tail int

	// Scheduling lists of window positions, each in seq order:
	// readyList holds dispatched uops whose sources are all ready but
	// that have not issued, inflight issued uops that have not
	// completed.
	readyList, inflight []int

	// stores lists the window positions of the ROB's effective
	// (renamed, not cancelled) stores in seq order: rename appends,
	// commit removes the first, flushAfter trims. Its length is the
	// store-queue occupancy, and memory disambiguation and forwarding
	// walk it instead of the ROB.
	stores []int

	// Dependency wakeup. waitI, waitF and waitP head, per physical
	// register, a stack of the consumer links waiting for its value
	// (noLink when empty); linkNext threads each stack.
	waitI, waitF, waitP []int32
	linkNext            []int32

	// Rename state.
	ratI  [isa.NumGPR]int32
	ratF  [isa.NumFPR]int32
	ratP  [isa.NumPred]int32
	physI []physReg
	physF []physRegF
	pprf  []pprfEntry
	freeI []int32
	freeF []int32
	freeP []int32

	// Issue-queue occupancy.
	intIQ, fpIQ, brIQ, ldQ int

	// PEP-PA's logical predicate register file, updated out of order at
	// writeback (the §4.3 caveat).
	lastPredVal [isa.NumPred]bool

	// Per branch PC, the post-consumer-flush refetches still to come;
	// those refetched instances are trivially "early" and are excluded
	// from the early-resolved attribution statistics.
	pendingRefetch []int32

	// Co-simulation oracle (tests): stepped at each commit.
	CoSim    *emulator.Emulator
	CoSimErr error

	halted bool
	Stats  Stats
}

// New builds a pipeline for the program under the given configuration.
func New(cfg config.Config, prog *program.Program) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if max(prog.Len(), cfg.IntPhysRegs, cfg.FPPhysRegs, cfg.PredPhysRegs) > math.MaxInt32 {
		return nil, fmt.Errorf("pipeline: program or register file too large for int32 indices")
	}
	pl := &Pipeline{
		cfg:    cfg,
		prog:   prog,
		mem:    emulator.NewMemory(),
		hier:   cache.NewHierarchy(cfg),
		gshare: predictor.NewGshare(cfg.GshareIdxBits),
		ras:    predictor.NewRAS(cfg.RASEntries),
		itab:   predictor.NewIndirectTable(10),
	}
	pl.pendingRefetch = make([]int32, prog.Len())
	pl.static = make([]static, prog.Len())
	for pc := range pl.static {
		pl.static[pc] = decode(prog.At(pc))
	}
	// The ROB holds at most ROBEntries uops and the front-end queue at
	// most maxFrontend-1+FetchWidth (fetch starts a group only below
	// maxFrontend).
	n := 1
	for n < cfg.ROBEntries+maxFrontend+cfg.FetchWidth {
		n <<= 1
	}
	pl.win = make([]uop, n)
	pl.cold = make([]uopCold, n)
	for i := range pl.cold {
		pl.ras.SnapshotInto(&pl.cold[i].rasSnap) // sizes it, so fetch never allocates
	}
	pl.mask = n - 1
	pl.readyList = make([]int, 0, n)
	pl.inflight = make([]int, 0, n)
	pl.stores = make([]int, 0, n)
	pl.linkNext = make([]int32, n*srcLinks)
	pl.brGHR.N = cfg.GshareGHRBits
	pl.pGHR.N = cfg.L2PredGHRBits
	pl.retiredPGHR.N = cfg.L2PredGHRBits

	switch cfg.Scheme {
	case config.SchemeConventional:
		pl.twolevel = predictor.NewTwoLevel(cfg.L2PredBytes, cfg.L2PredGHRBits, cfg.L2PredLHRBits, cfg.L2PredLHTBits)
		pl.twolevel.SetIdeal(cfg.IdealNoAlias)
	case config.SchemePEPPA:
		pl.pep = peppa.New(peppa.DefaultConfig())
	case config.SchemePredicate:
		pl.pp = core.New(core.Config{
			SizeBytes: cfg.L2PredBytes,
			GHRBits:   cfg.L2PredGHRBits,
			LHRBits:   cfg.L2PredLHRBits,
			LHTBits:   cfg.L2PredLHTBits,
			ConfBits:  cfg.ConfBits,
			Ideal:     cfg.IdealNoAlias,
			SplitPVT:  cfg.SplitPVT,
		})
		pl.shadow = predictor.NewTwoLevel(cfg.L2PredBytes, cfg.L2PredGHRBits, cfg.L2PredLHRBits, cfg.L2PredLHTBits)
		pl.shadowGHR.N = cfg.L2PredGHRBits
	default:
		return nil, fmt.Errorf("pipeline: unknown scheme %v", cfg.Scheme)
	}

	// Physical register files: architectural registers map identically
	// at reset; the rest populate the free lists.
	pl.physI = make([]physReg, cfg.IntPhysRegs)
	pl.physF = make([]physRegF, cfg.FPPhysRegs)
	pl.pprf = make([]pprfEntry, cfg.PredPhysRegs)
	pl.waitI = emptyStacks(cfg.IntPhysRegs)
	pl.waitF = emptyStacks(cfg.FPPhysRegs)
	pl.waitP = emptyStacks(cfg.PredPhysRegs)
	for i := range pl.physI {
		pl.physI[i].ready = true
	}
	for i := range pl.physF {
		pl.physF[i].ready = true
	}
	for i := range pl.pprf {
		pl.pprf[i] = pprfEntry{computed: true, robPtr: -1}
	}
	pl.pprf[0].val = true // p0 hardwired true
	for r := range pl.ratI {
		pl.ratI[r] = int32(r)
	}
	for r := range pl.ratF {
		pl.ratF[r] = int32(r)
	}
	for p := range pl.ratP {
		pl.ratP[p] = int32(p)
	}
	pl.freeI = make([]int32, 0, cfg.IntPhysRegs)
	pl.freeF = make([]int32, 0, cfg.FPPhysRegs)
	pl.freeP = make([]int32, 0, cfg.PredPhysRegs)
	for i := isa.NumGPR; i < cfg.IntPhysRegs; i++ {
		pl.freeI = append(pl.freeI, int32(i))
	}
	for i := isa.NumFPR; i < cfg.FPPhysRegs; i++ {
		pl.freeF = append(pl.freeF, int32(i))
	}
	for i := isa.NumPred; i < cfg.PredPhysRegs; i++ {
		pl.freeP = append(pl.freeP, int32(i))
	}
	return pl, nil
}

func emptyStacks(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = noLink
	}
	return s
}

// Memory exposes the committed architectural memory (programs often
// need data pre-initialized; tests inspect results).
func (pl *Pipeline) Memory() *emulator.Memory { return pl.mem }

// ArchGPR reads the committed architectural value of an integer
// register (meaningful once the ROB is empty, e.g. after halt).
func (pl *Pipeline) ArchGPR(r isa.Reg) int64 { return pl.physI[pl.ratI[r]].val }

// ArchFPR reads the committed architectural value of an FP register.
func (pl *Pipeline) ArchFPR(r isa.Reg) float64 { return pl.physF[pl.ratF[r]].val }

// ArchPred reads the committed architectural value of a predicate.
func (pl *Pipeline) ArchPred(p isa.PredReg) bool { return pl.pprf[pl.ratP[p]].val }

// Halted reports whether the program's halt instruction committed.
func (pl *Pipeline) Halted() bool { return pl.halted }

// Hierarchy exposes the cache model for statistics.
func (pl *Pipeline) Hierarchy() *cache.Hierarchy { return pl.hier }

// Run simulates until the program halts or maxCommits instructions have
// committed (0 = unbounded). It returns an error on internal
// inconsistency (deadlock, co-simulation divergence).
func (pl *Pipeline) Run(maxCommits uint64) error {
	lastCommit := pl.Stats.Committed
	stuck := uint64(0)
	for !pl.halted && (maxCommits == 0 || pl.Stats.Committed < maxCommits) {
		pl.step()
		if pl.CoSimErr != nil {
			return pl.CoSimErr
		}
		if pl.Stats.Committed == lastCommit {
			stuck++
			if stuck > 200000 {
				return fmt.Errorf("pipeline: no commit for %d cycles at cycle %d (pc=%d, rob=%d, frontend=%d)",
					stuck, pl.cycle, pl.fetchPC, pl.mid-pl.head, pl.tail-pl.mid)
			}
		} else {
			stuck = 0
			lastCommit = pl.Stats.Committed
		}
	}
	return nil
}

// step advances the machine one cycle, back to front so that a stage's
// output is visible to earlier stages only on the next cycle.
func (pl *Pipeline) step() {
	pl.commit()
	if !pl.halted {
		pl.writeback()
		pl.issue()
		pl.rename()
		pl.fetch()
	}
	pl.cycle++
	pl.Stats.Cycles = pl.cycle
}

// predGHR returns the global history the second-level predictor should
// see at prediction time (speculative, or retired under the perfect-GHR
// idealization).
func (pl *Pipeline) predGHR() uint64 {
	if pl.cfg.IdealPerfectGHR {
		return pl.retiredPGHR.Snapshot()
	}
	return pl.pGHR.Snapshot()
}

// slot returns the window slot at position i.
func (pl *Pipeline) slot(i int) *uop { return &pl.win[i&pl.mask] }

// coldSlot returns the cold state of the window slot at position i.
func (pl *Pipeline) coldSlot(i int) *uopCold { return &pl.cold[i&pl.mask] }

// insertPos inserts window position pos into l, which is in seq order,
// and returns the longer list. Every list has capacity for the whole
// window.
func insertPos(l []int, pos int) []int {
	n := len(l)
	l = l[:n+1]
	for ; n > 0 && l[n-1] > pos; n-- {
		l[n] = l[n-1]
	}
	l[n] = pos
	return l
}

// trimFrom drops the tail of l, which is in seq order, from the first
// position at or beyond end.
func trimFrom(l []int, end int) []int {
	n := len(l)
	for n > 0 && l[n-1] >= end {
		n--
	}
	return l[:n]
}

// instAddr maps an instruction index to its byte address.
func instAddr(pc int) uint64 { return codeBase + uint64(pc)*instBytes }

// InstAddr exposes the instruction-index → byte-address mapping so the
// trace-driven replay engine indexes predictor tables exactly as the
// pipeline does (same PC folding, same aliasing).
func InstAddr(pc int) uint64 { return instAddr(pc) }

// flushAfter squashes every uop with seq strictly greater than boundary,
// restores rename and predictor state in reverse order, clears dangling
// PPRF consumer pointers, and redirects fetch to newPC after penalty
// bubble cycles.
func (pl *Pipeline) flushAfter(boundary int64, newPC int, penalty int) {
	// Undo youngest first: the front-end queue, then the ROB.
	for pl.tail > pl.head {
		i := pl.tail - 1
		u := pl.slot(i)
		if u.seq <= boundary {
			break
		}
		if i < pl.mid {
			pl.undoRename(u)
			pl.Stats.Squashed++
			pl.mid = i
		}
		pl.undoFetch(u, pl.coldSlot(i))
		pl.tail = i
	}
	pl.readyList = trimFrom(pl.readyList, pl.mid)
	pl.inflight = trimFrom(pl.inflight, pl.mid)
	pl.stores = trimFrom(pl.stores, pl.mid)
	for i := range pl.pprf {
		if pl.pprf[i].robPtr > boundary {
			pl.pprf[i].robPtr = -1
		}
	}
	pl.fetchPC = newPC
	pl.fetchHalted = false
	if until := pl.cycle + uint64(penalty); until > pl.fetchStall {
		pl.fetchStall = until
	}
}

// undoFetch reverses the speculative predictor updates a uop performed
// at fetch time; c is its slot's cold state.
func (pl *Pipeline) undoFetch(u *uop, c *uopCold) {
	if u.brLkValid {
		pl.twolevel.Undo(c.brLk)
		u.brLkValid = false
	}
	if u.cmpLkValid {
		pl.pp.Undo(c.cmpLk)
		u.cmpLkValid = false
	}
	if u.pepLkValid {
		pl.pep.Undo(c.pepLk)
		u.pepLkValid = false
	}
	if u.pushedPGHR {
		pl.pGHR.Restore(u.pGHRSnap)
		u.pushedPGHR = false
	}
	if u.pushedBrGHR {
		pl.brGHR.Restore(u.brGHRSnap)
		u.pushedBrGHR = false
	}
	if u.touchedRAS {
		pl.ras.Restore(c.rasSnap)
		u.touchedRAS = false
	}
}

// undoRename reverses a uop's rename-stage effects: RAT mappings, free
// lists and issue-queue occupancy. flushAfter trims the store list.
func (pl *Pipeline) undoRename(u *uop) {
	if !u.renamed {
		return
	}
	switch u.dKind {
	case destInt:
		pl.ratI[u.in.Rd] = u.oldPhys
		pl.freeI = append(pl.freeI, u.newPhys)
	case destFP:
		pl.ratF[u.in.Rd] = u.oldPhys
		pl.freeF = append(pl.freeF, u.newPhys)
	}
	for i := 1; i >= 0; i-- {
		d := &u.pDests[i]
		if d.valid {
			pl.ratP[d.arch] = d.oldP
			pl.freeP = append(pl.freeP, d.newP)
		}
	}
	if !u.issued {
		pl.releaseIQ(u)
		if u.pending > 0 {
			pl.unlink(u)
		}
	}
	if u.st.isLoad && !u.canceled {
		pl.ldQ--
	}
}

// releaseIQ frees the issue-queue slot a dispatched, un-issued uop held.
func (pl *Pipeline) releaseIQ(u *uop) {
	switch u.class {
	case classInt:
		pl.intIQ--
	case classFP:
		pl.fpIQ--
	case classMem:
		pl.intIQ-- // address generation occupies the integer queue
	case classBr:
		pl.brIQ--
	}
}
