package cache

import (
	"testing"

	"repro/internal/config"
)

func smallCache(next *Cache, missLat int) *Cache {
	return New(config.CacheParams{SizeBytes: 1024, Ways: 2, BlockBytes: 64, LatCycles: 2, MSHRs: 2, WriteBuf: 2}, next, missLat)
}

func TestHitAfterMiss(t *testing.T) {
	c := smallCache(nil, 100)
	lat1 := c.Access(0x1000, 0, false)
	if lat1 < 100 {
		t.Errorf("cold miss latency = %d, want >= 100", lat1)
	}
	lat2 := c.Access(0x1000, 200, false)
	if lat2 != 2 {
		t.Errorf("hit latency = %d, want 2", lat2)
	}
	// Same block, different word: still a hit.
	lat3 := c.Access(0x1038, 300, false)
	if lat3 != 2 {
		t.Errorf("same-block hit latency = %d, want 2", lat3)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(nil, 100)
	// 8 sets of 2 ways; blocks mapping to set 0: block addresses 0, 8, 16...
	c.Access(0*64, 0, false)    // block 0 -> set 0
	c.Access(8*64, 200, false)  // block 8 -> set 0
	c.Access(16*64, 400, false) // block 16 -> evicts block 0 (LRU)
	if lat := c.Access(8*64, 600, false); lat != 2 {
		t.Errorf("block 8 should still hit, lat = %d", lat)
	}
	if lat := c.Access(0*64, 800, false); lat < 100 {
		t.Errorf("block 0 should have been evicted, lat = %d", lat)
	}
}

func TestMSHRMerge(t *testing.T) {
	c := smallCache(nil, 100)
	c.Access(0x2000, 0, false) // miss resolving around cycle 102
	lat := c.Access(0x2000, 10, false)
	if lat >= 100+2 {
		t.Errorf("merged miss latency = %d, should be shorter than a full miss", lat)
	}
	if c.Stats.MSHRMerges != 1 {
		t.Errorf("MSHR merges = %d, want 1", c.Stats.MSHRMerges)
	}
}

func TestMSHRFullStalls(t *testing.T) {
	c := smallCache(nil, 100)
	c.Access(0x0000, 0, false)
	c.Access(0x4000, 0, false)
	// Third concurrent miss: both MSHRs busy, must stall.
	lat := c.Access(0x8000, 0, false)
	if lat <= 102 {
		t.Errorf("miss with full MSHRs latency = %d, want > 102", lat)
	}
}

func TestTwoLevelComposition(t *testing.T) {
	l2 := New(config.CacheParams{SizeBytes: 4096, Ways: 4, BlockBytes: 128, LatCycles: 8, MSHRs: 4}, nil, 120)
	l1 := New(config.CacheParams{SizeBytes: 1024, Ways: 2, BlockBytes: 64, LatCycles: 2, MSHRs: 4}, l2, 0)
	lat := l1.Access(0x100, 0, false)
	if lat < 2+8+120 {
		t.Errorf("cold two-level miss = %d, want >= 130", lat)
	}
	// Evict 0x100 from L1 (2-way set) with well-spaced conflicting
	// accesses that stay within L2 capacity: L1 eviction but L2 hit.
	for i := 1; i <= 4; i++ {
		l1.Access(uint64(0x100+i*512), uint64(i)*1000, false)
	}
	lat = l1.Access(0x100, 10000, false)
	if lat < 2+8 || lat >= 2+8+120 {
		t.Errorf("L2-hit latency = %d, want in [10,130)", lat)
	}
}

func TestMissRate(t *testing.T) {
	c := smallCache(nil, 100)
	c.Access(0x0, 0, false)
	c.Access(0x0, 10, false)
	c.Access(0x0, 20, false)
	c.Access(0x0, 30, false)
	if mr := c.MissRate(); mr != 0.25 {
		t.Errorf("miss rate = %v, want 0.25", mr)
	}
}

func TestWriteBufferStall(t *testing.T) {
	c := smallCache(nil, 100)
	c.Access(0x0, 0, false) // warm the block
	base := c.Access(0x0, 200, true)
	// Saturate the 2-entry write buffer at the same cycle.
	c.Access(0x0, 300, true)
	c.Access(0x0, 300, true)
	lat := c.Access(0x0, 300, true)
	if lat <= base {
		t.Errorf("write with full write buffer = %d, want > %d", lat, base)
	}
	if c.Stats.WBStalls == 0 {
		t.Error("expected a write-buffer stall")
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(2, 10)
	if lat := tlb.Access(0x1000, 0); lat != 10 {
		t.Errorf("cold TLB access = %d, want 10", lat)
	}
	if lat := tlb.Access(0x1800, 1); lat != 0 {
		t.Errorf("same-page access = %d, want 0", lat)
	}
	tlb.Access(0x2000, 2)
	tlb.Access(0x3000, 3) // evicts page 1 (LRU)
	if lat := tlb.Access(0x1000, 4); lat != 10 {
		t.Errorf("evicted page access = %d, want 10", lat)
	}
}

// TestTLBTieBreakDeterministic fills a 2-entry TLB with two pages on
// one cycle and then misses: the tie on last use must always evict the
// lowest slot (page 1, filled first), never a page picked at random.
func TestTLBTieBreakDeterministic(t *testing.T) {
	for i := 0; i < 200; i++ {
		tlb := NewTLB(2, 10)
		tlb.Access(0x1000, 5)
		tlb.Access(0x2000, 5)
		tlb.Access(0x3000, 6)
		if lat := tlb.Access(0x2000, 7); lat != 0 {
			t.Fatalf("TLB %d: page 2 evicted on a last-use tie, want page 1 (lowest slot)", i)
		}
		if lat := tlb.Access(0x1000, 8); lat != 10 {
			t.Fatalf("TLB %d: page 1 still mapped after the tie eviction", i)
		}
	}
}

func TestHierarchyTable1(t *testing.T) {
	cfg := config.Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	h := NewHierarchy(cfg)
	// Cold instruction fetch goes through ITLB + L1I + L2 + memory.
	lat := h.InstAccess(0x4000, 0)
	if lat < cfg.TLBMissPenalty+cfg.L1I.LatCycles+cfg.L2.LatCycles+cfg.MemLat {
		t.Errorf("cold fetch latency = %d", lat)
	}
	// Warm fetch is L1I latency only.
	lat = h.InstAccess(0x4000, 1000)
	if lat != cfg.L1I.LatCycles {
		t.Errorf("warm fetch latency = %d, want %d", lat, cfg.L1I.LatCycles)
	}
	// Warm data access.
	h.DataAccess(0x9000, 0, false)
	lat = h.DataAccess(0x9000, 2000, false)
	if lat != cfg.L1D.LatCycles {
		t.Errorf("warm load latency = %d, want %d", lat, cfg.L1D.LatCycles)
	}
}

func TestL1L2SharedByIAndD(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	h.InstAccess(0x10000, 0) // brings the block into L2 (128B blocks)
	lat := h.DataAccess(0x10000, 500, false)
	// L1D misses but L2 hits: latency far below a memory access.
	if lat >= cfg.MemLat {
		t.Errorf("expected unified-L2 hit, latency = %d", lat)
	}
}

func TestConfigTable1Render(t *testing.T) {
	s := config.Default().Table1()
	for _, want := range []string{"256 entries", "64KB", "1MB", "148 KB", "120 cycles"} {
		if !contains(s, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && index(s, sub) >= 0
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
