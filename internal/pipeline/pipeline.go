package pipeline

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/emulator"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/program"
	"repro/internal/scheme"
	"repro/internal/trace"
)

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

	// Second-level predictor side (package scheme): conv is the
	// conventional scheme's, or the predicate scheme's Figure 6b shadow
	// scored at commit; pep and pred are PEP-PA's and predpred's.
	conv *scheme.Conventional
	pep  scheme.PEPPA
	pred *scheme.Predicate

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

	// stores[storeHead:] lists the window positions of the ROB's
	// effective (renamed, not cancelled) stores in seq order: rename
	// appends, commit advances storeHead past the first, flushAfter
	// trims the tail. Entries below storeHead have committed, so no trim
	// reaches them; the FIFO restarts at index 0 whenever it empties,
	// and rename compacts it when an append would outgrow its capacity.
	// Its live length is the store-queue occupancy, and memory
	// disambiguation and forwarding walk it instead of the ROB.
	stores    []int
	storeHead int

	// ppWater bounds every PPRF robPtr from above: rename raises it to
	// each seq it records, and flushAfter scans the PPRF only when it
	// lies beyond the flush boundary, then lowers it to the boundary.
	ppWater int64

	// Dependency wakeup: linkNext threads the consumer-link stacks
	// the physical registers head.
	linkNext []int32

	// Rename state. The maps are indexed by architectural register
	// numbers and sized to their types' range, so no index into them
	// needs a bounds check; New maps the entries past NumGPR, NumFPR
	// and NumPred to themselves, and nothing reads them.
	ratI  [1 << 8]int32
	ratF  [1 << 8]int32
	ratP  [1 << 8]int32
	physI []physReg
	physF []physRegF
	pprf  []pprfEntry
	freeI []int32
	freeF []int32
	freeP []int32

	// Issue-queue occupancy and capacity, indexed by a uop's queue,
	// and the load queue's occupancy.
	iq, iqCap [numIQ]int
	ldQ       int

	// PEP-PA's logical predicate register file, updated out of order at
	// writeback (the §4.3 caveat).
	lastPredVal [1 << 8]bool

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
	pl.ppWater = -1
	pl.iqCap = [numIQ]int{iqInt: cfg.IntIQEntries, iqFP: cfg.FPIQEntries, iqBr: cfg.BrIQEntries}
	pl.linkNext = make([]int32, n*srcLinks)
	pl.brGHR.N = cfg.GshareIdxBits

	kinds, sc := scheme.Kinds(prog), scheme.ConfigOf(cfg)
	pl.conv = scheme.ConvOf(sc, kinds)
	switch cfg.Scheme {
	case config.SchemePEPPA:
		pl.pep = scheme.NewPEPPA(kinds)
	case config.SchemePredicate:
		pl.pred = scheme.NewPredicate(sc, kinds)
	}
	pl.static = make([]static, len(kinds))
	for pc, kind := range kinds {
		st := &pl.static[pc]
		*st = decode(prog.At(pc))
		switch addr := scheme.InstAddr(pc); kind {
		case trace.EvBrInd:
			st.itab = int32(pl.itab.Slot(addr))
		case trace.EvCondBr:
			st.gshare = pl.gshare.Site(addr)
		}
	}

	// Physical register files: architectural registers map identically
	// at reset; the rest populate the free lists.
	pl.physI = make([]physReg, cfg.IntPhysRegs)
	pl.physF = make([]physRegF, cfg.FPPhysRegs)
	pl.pprf = make([]pprfEntry, cfg.PredPhysRegs)
	for i := range pl.physI {
		pl.physI[i] = physReg{ready: true, wait: noLink}
	}
	for i := range pl.physF {
		pl.physF[i] = physRegF{ready: true, wait: noLink}
	}
	for i := range pl.pprf {
		pl.pprf[i] = pprfEntry{computed: true, wait: noLink, robPtr: -1}
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

// Memory exposes the committed architectural memory (programs often
// need data pre-initialized; tests inspect results).
func (pl *Pipeline) Memory() *emulator.Memory { return pl.mem }

// ArchGPR reads the committed architectural value of an integer
// register (meaningful once the ROB is empty, e.g. after halt).
func (pl *Pipeline) ArchGPR(r isa.Reg) int64 { return pl.physI[pl.ratI[r]].val }

// ArchFPR reads the committed architectural value of an FP register.
func (pl *Pipeline) ArchFPR(r isa.Reg) float64 { return pl.physF[pl.ratF[r]].val }

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

// slot returns the window slot at position i.
func (pl *Pipeline) slot(i int) *uop { return &pl.win[i&pl.mask] }

// coldSlot returns the cold state of the window slot at position i.
func (pl *Pipeline) coldSlot(i int) *uopCold { return &pl.cold[i&pl.mask] }

// insertPos inserts window position pos into l, which is in seq order,
// and returns the longer list. Every list has capacity for the whole
// window, so the append never allocates.
func insertPos(l []int, pos int) []int {
	l = append(l, pos)
	for n := len(l) - 1; n > 0 && l[n-1] > pos; n-- {
		l[n], l[n-1] = l[n-1], pos
	}
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
	if pl.storeHead == len(pl.stores) {
		pl.stores, pl.storeHead = pl.stores[:0], 0
	}
	if pl.ppWater > boundary {
		for i := range pl.pprf {
			if pl.pprf[i].robPtr > boundary {
				pl.pprf[i].robPtr = -1
			}
		}
		pl.ppWater = boundary
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
	if !u.isBranch && !u.isCompare {
		return // no predictor work to undo
	}
	if u.brLkValid {
		pl.conv.Squash(&c.brLk, u.pGHRSnap)
		u.brLkValid = false
	}
	if u.cmpLkValid {
		pl.pred.Squash(&c.cmpLk, u.pGHRSnap)
		u.cmpLkValid = false
	}
	if u.pepLkValid {
		pl.pep.Squash(&c.pepLk)
		u.pepLkValid = false
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
		pl.ratI[u.rd] = u.oldPhys
		pl.freeI = append(pl.freeI, u.newPhys)
	case destFP:
		pl.ratF[u.rd] = u.oldPhys
		pl.freeF = append(pl.freeF, u.newPhys)
	}
	for i := 1; i >= 0; i-- {
		if u.pValid[i] {
			d := &u.pDests[i]
			pl.ratP[d.arch] = d.oldP
			pl.freeP = append(pl.freeP, d.newP)
		}
	}
	if !u.issued && u.class != classNone {
		pl.releaseIQ(u)
		if u.pending > 0 {
			pl.unlink(u)
		}
	}
	if u.isLoad && !u.canceled {
		pl.ldQ--
	}
}

// Issue queues. A uop's decoded queue is the one rename needs a free
// entry in and the uop holds until it issues. Memory uops generate
// their addresses in the integer queue; nops and halts need a free
// integer entry but never take one, and neither does a uop that rename
// cancels (classNone). numIQ is a power of two, so a queue index masked
// by numIQ-1 needs no bounds check.
const (
	iqInt = iota
	iqFP
	iqBr
	numIQ = 4
)

// releaseIQ frees the issue-queue slot a dispatched, un-issued uop held.
func (pl *Pipeline) releaseIQ(u *uop) { pl.iq[u.queue&(numIQ-1)]-- }
