// Package cache implements the timing-only memory hierarchy of Table 1:
// set-associative L1I/L1D, a unified L2, main memory, TLBs, MSHRs and
// write buffers. The hierarchy is timing-only — data values live in the
// emulator memory — so Access returns the latency in cycles for a given
// address at a given cycle, accounting for outstanding misses.
package cache

import (
	"slices"

	"repro/internal/config"
)

// Cache is one level of a timing-only set-associative cache with LRU
// replacement, optional MSHRs (miss merging) and a write buffer.
type Cache struct {
	params config.CacheParams
	// ways holds every set's ways, set-major: set s owns
	// ways[s*params.Ways : (s+1)*params.Ways].
	ways    []way
	nSets   uint64
	next    *Cache // next level, or nil (then missLat applies)
	missLat int    // latency of the level below when next == nil

	// MSHRs: the first nMSHR entries are the outstanding misses, each a
	// block address and the cycle at which its miss resolves (an entry
	// lingers until the next miss expires it).
	mshrs []mshr
	nMSHR int
	// Write buffer occupancy: cycle at which each entry drains.
	writeBuf []uint64

	Stats Stats
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	MSHRMerges uint64
	WBStalls   uint64
}

type way struct {
	tag   uint64
	valid bool
	lru   uint64
}

type mshr struct {
	block uint64
	done  uint64
}

// New builds a cache level. next may be nil, in which case missLat is
// charged for every miss (used for main memory behind the L2).
func New(p config.CacheParams, next *Cache, missLat int) *Cache {
	c := new(Cache)
	c.Reset(p, next, missLat)
	return c
}

// Reset makes c the empty level New(p, next, missLat) builds, reusing
// its arrays' storage.
func (c *Cache) Reset(p config.CacheParams, next *Cache, missLat int) {
	*c = Cache{
		params: p, next: next, missLat: missLat,
		ways: append(c.ways[:0], make([]way, p.Sets()*p.Ways)...), nSets: uint64(p.Sets()),
		mshrs:    append(c.mshrs[:0], make([]mshr, p.MSHRs)...),
		writeBuf: append(c.writeBuf[:0], make([]uint64, p.WriteBuf)...),
	}
}

func (c *Cache) blockAddr(addr uint64) uint64 {
	return addr / uint64(c.params.BlockBytes)
}

// set returns the ways of block's set.
func (c *Cache) set(block uint64) []way {
	first := int(block%c.nSets) * c.params.Ways
	return c.ways[first : first+c.params.Ways]
}

// lookup returns block's way, or nil on a miss.
func (c *Cache) lookup(block uint64) *way {
	tag := block / c.nSets
	s := c.set(block)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			return &s[i]
		}
	}
	return nil
}

func (c *Cache) fill(block uint64, cycle uint64) {
	s := c.set(block)
	victim := 0
	for i := range s {
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	s[victim] = way{tag: block / c.nSets, valid: true, lru: cycle}
}

// Access models one access and returns its latency in cycles.
func (c *Cache) Access(addr uint64, cycle uint64, isWrite bool) int {
	c.Stats.Accesses++
	block := c.blockAddr(addr)
	if w := c.lookup(block); w != nil {
		w.lru = cycle
		// The block may still be in flight (fill registered at miss
		// time): an access before the miss resolves merges with it.
		if m := c.findMSHR(block); m >= 0 && c.mshrs[m].done > cycle {
			c.Stats.MSHRMerges++
			return int(c.mshrs[m].done - cycle)
		}
		lat := c.params.LatCycles
		if isWrite {
			lat += c.writeBufferDelay(cycle)
		}
		return lat
	}

	c.Stats.Misses++
	// MSHR full: stall until the earliest outstanding miss resolves.
	stall := 0
	if c.params.MSHRs > 0 {
		c.expireMSHRs(cycle)
		if c.nMSHR >= c.params.MSHRs {
			earliest := ^uint64(0)
			for _, m := range c.mshrs[:c.nMSHR] {
				if m.done < earliest {
					earliest = m.done
				}
			}
			if earliest > cycle {
				stall = int(earliest - cycle)
			}
			c.expireMSHRs(cycle + uint64(stall))
		}
	}

	below := c.missLat
	if c.next != nil {
		below = c.next.Access(addr, cycle+uint64(stall)+uint64(c.params.LatCycles), isWrite)
	}
	lat := stall + c.params.LatCycles + below
	if isWrite {
		lat += c.writeBufferDelay(cycle)
	}
	c.fill(block, cycle)
	if c.params.MSHRs > 0 {
		// The expiry above left a free entry unless block already has
		// one, which the new miss then overwrites.
		m := c.findMSHR(block)
		if m < 0 {
			m = c.nMSHR
			c.nMSHR++
		}
		c.mshrs[m] = mshr{block: block, done: cycle + uint64(lat)}
	}
	return lat
}

// findMSHR returns the index of block's MSHR entry, or -1.
func (c *Cache) findMSHR(block uint64) int {
	for i, m := range c.mshrs[:c.nMSHR] {
		if m.block == block {
			return i
		}
	}
	return -1
}

// expireMSHRs frees every entry whose miss resolved by cycle, moving the
// last entry into each freed one.
func (c *Cache) expireMSHRs(cycle uint64) {
	for i := 0; i < c.nMSHR; {
		if c.mshrs[i].done <= cycle {
			c.nMSHR--
			c.mshrs[i] = c.mshrs[c.nMSHR]
			continue
		}
		i++
	}
}

// writeBufferDelay models write-buffer occupancy: a store allocates the
// earliest-draining entry; if all entries are still draining, the store
// stalls until one frees.
func (c *Cache) writeBufferDelay(cycle uint64) int {
	if len(c.writeBuf) == 0 {
		return 0
	}
	best := 0
	for i := range c.writeBuf {
		if c.writeBuf[i] < c.writeBuf[best] {
			best = i
		}
	}
	delay := 0
	if c.writeBuf[best] > cycle {
		delay = int(c.writeBuf[best] - cycle)
		c.Stats.WBStalls++
	}
	// The entry drains to the next level after a fixed drain time.
	c.writeBuf[best] = cycle + uint64(delay) + uint64(c.params.LatCycles*4)
	return delay
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Stats.Accesses == 0 {
		return 0
	}
	return float64(c.Stats.Misses) / float64(c.Stats.Accesses)
}

// TLB is a timing-only fully-associative TLB with LRU replacement over
// 4 KB pages. Entries fill slots 0, 1, 2, … in order; a miss on a full
// TLB evicts the slot with the oldest last use, the lowest slot among
// equals.
type TLB struct {
	pages   []uint64 // page held by each filled slot
	lastUse []uint64 // cycle of each filled slot's last access
	slotOf  map[uint64]int32
	// The slot of the last page accessed, consulted before slotOf
	// (-1 before the first access).
	mruPage uint64
	mruSlot int32

	penalty  int
	Misses   uint64
	Accesses uint64
}

// NewTLB builds a TLB with the given number (at least 1) of entries and
// miss penalty.
func NewTLB(size, penalty int) *TLB {
	t := new(TLB)
	t.Reset(size, penalty)
	return t
}

// Reset makes t the empty TLB NewTLB(size, penalty) builds, reusing its
// storage.
func (t *TLB) Reset(size, penalty int) {
	slotOf := t.slotOf
	if slotOf == nil {
		slotOf = make(map[uint64]int32, size)
	}
	clear(slotOf)
	*t = TLB{
		pages:   slices.Grow(t.pages[:0], size),
		lastUse: slices.Grow(t.lastUse[:0], size),
		slotOf:  slotOf,
		mruSlot: -1,
		penalty: penalty,
	}
}

// Access returns the extra cycles charged for translating addr.
func (t *TLB) Access(addr uint64, cycle uint64) int {
	t.Accesses++
	page := addr >> 12
	if t.mruSlot >= 0 && t.mruPage == page {
		t.lastUse[t.mruSlot] = cycle
		return 0
	}
	if s, ok := t.slotOf[page]; ok {
		t.lastUse[s] = cycle
		t.mruPage, t.mruSlot = page, s
		return 0
	}
	t.Misses++
	s := int32(len(t.pages))
	if len(t.pages) < cap(t.pages) {
		t.pages = t.pages[:s+1]
		t.lastUse = t.lastUse[:s+1]
	} else {
		s = 0
		for i, c := range t.lastUse {
			if c < t.lastUse[s] {
				s = int32(i)
			}
		}
		delete(t.slotOf, t.pages[s])
	}
	t.pages[s], t.lastUse[s] = page, cycle
	t.slotOf[page] = s
	t.mruPage, t.mruSlot = page, s
	return t.penalty
}

// Hierarchy bundles the Table 1 memory system.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *TLB
	DTLB *TLB
}

// NewHierarchy builds the full Table 1 memory system.
func NewHierarchy(cfg config.Config) *Hierarchy {
	h := new(Hierarchy)
	h.Reset(cfg)
	return h
}

// Reset makes h the empty memory system NewHierarchy(cfg) builds,
// reusing its levels' storage.
func (h *Hierarchy) Reset(cfg config.Config) {
	if h.L1I == nil {
		*h = Hierarchy{L1I: new(Cache), L1D: new(Cache), L2: new(Cache), ITLB: new(TLB), DTLB: new(TLB)}
	}
	h.L2.Reset(cfg.L2, nil, cfg.MemLat)
	h.L1I.Reset(cfg.L1I, h.L2, 0)
	h.L1D.Reset(cfg.L1D, h.L2, 0)
	h.ITLB.Reset(cfg.ITLBSize, cfg.TLBMissPenalty)
	h.DTLB.Reset(cfg.DTLBSize, cfg.TLBMissPenalty)
}

// InstAccess returns the fetch latency for an instruction address.
func (h *Hierarchy) InstAccess(addr uint64, cycle uint64) int {
	return h.ITLB.Access(addr, cycle) + h.L1I.Access(addr, cycle, false)
}

// DataAccess returns the latency for a data access.
func (h *Hierarchy) DataAccess(addr uint64, cycle uint64, isWrite bool) int {
	return h.DTLB.Access(addr, cycle) + h.L1D.Access(addr, cycle, isWrite)
}
