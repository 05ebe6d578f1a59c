package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/num"
)

func smallCache(t *testing.T, size, lineB, assoc int, next *Cache) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", SizeBytes: size, LineBytes: lineB, Assoc: assoc}, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigSets(t *testing.T) {
	// Table I x86 L1D: 32K, 64 B lines, 8-way → 64 sets.
	c := Config{Name: "L1D", SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 8}
	if c.Sets() != 64 {
		t.Fatalf("sets = %d want 64", c.Sets())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Assoc: 1},
		{Name: "b", SizeBytes: 1000, LineBytes: 64, Assoc: 1},        // not divisible
		{Name: "c", SizeBytes: 3 * 64 * 2, LineBytes: 64, Assoc: 2},  // 3 sets
		{Name: "d", SizeBytes: 48 * 2 * 64, LineBytes: 48, Assoc: 2}, // line not pow2
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v must be invalid", cfg)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := smallCache(t, 1024, 64, 2, nil)
	c.Access(0, 4, false)
	if c.Stats.ReadMisses() != 1 || c.Stats.ReadHits() != 0 {
		t.Fatalf("cold access: %+v", c.Stats)
	}
	c.Access(60, 4, false) // same line
	if c.Stats.ReadHits() != 1 {
		t.Fatalf("same-line access must hit: %+v", c.Stats)
	}
	if c.MemAccesses != 1 {
		t.Fatalf("memory accesses = %d want 1", c.MemAccesses)
	}
}

func TestLineSpanningAccess(t *testing.T) {
	c := smallCache(t, 1024, 64, 2, nil)
	c.Access(60, 8, false) // spans lines 0 and 1
	if c.Stats.ReadAccesses() != 2 || c.Stats.ReadMisses() != 2 {
		t.Fatalf("spanning access: %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 2 sets × 2 ways, 64 B lines = 256 B.
	c := smallCache(t, 256, 64, 2, nil)
	// All to set 0: line addresses 0, 2, 4 (even line index → set 0).
	a0, a2, a4 := uint64(0), uint64(2*64), uint64(4*64)
	c.Access(a0, 4, false)
	c.Access(a2, 4, false)
	c.Access(a0, 4, false) // a0 now MRU
	c.Access(a4, 4, false) // evicts a2 (LRU)
	if c.Stats.ReadRepl() != 1 {
		t.Fatalf("replacements = %d want 1", c.Stats.ReadRepl())
	}
	c.Access(a0, 4, false)
	if c.Stats.ReadHits() != 2 { // a0 hit twice total
		t.Fatalf("a0 must still be resident: %+v", c.Stats)
	}
	c.Access(a2, 4, false)
	if c.Stats.ReadMisses() != 4 { // a0,a2,a4 cold + a2 again
		t.Fatalf("a2 must have been evicted: %+v", c.Stats)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	l2 := smallCache(t, 4096, 64, 4, nil)
	l1 := smallCache(t, 128, 64, 1, l2) // 2 sets, direct mapped
	// Write to line 0 (set 0): write-allocate reads from L2.
	l1.Access(0, 4, true)
	if l1.Stats.WriteMisses() != 1 {
		t.Fatalf("write miss expected: %+v", l1.Stats)
	}
	if l2.Stats.ReadAccesses() != 1 {
		t.Fatalf("write-allocate must fetch from next level: %+v", l2.Stats)
	}
	// Conflict: line 2 maps to set 0 as well; dirty line 0 must write back.
	l1.Access(2*64, 4, false)
	if l1.Stats.Writebacks != 1 {
		t.Fatalf("writeback expected: %+v", l1.Stats)
	}
	if l2.Stats.WriteAccesses() != 1 {
		t.Fatalf("writeback must reach L2 as a write: %+v", l2.Stats)
	}
}

func TestAssociativityHoldsWorkingSet(t *testing.T) {
	// 8-way 1-set cache holds 8 distinct lines without eviction.
	c := smallCache(t, 8*64, 64, 8, nil)
	for i := 0; i < 8; i++ {
		c.Access(uint64(i*64), 4, false)
	}
	for i := 0; i < 8; i++ {
		c.Access(uint64(i*64), 4, false)
	}
	if c.Stats.ReadHits() != 8 || c.Stats.ReadMisses() != 8 {
		t.Fatalf("8-line working set must fit: %+v", c.Stats)
	}
	if c.Stats.ReadRepl() != 0 {
		t.Fatalf("no replacements expected: %+v", c.Stats)
	}
}

func TestThrashingSet(t *testing.T) {
	// 9 lines cycling through an 8-way set thrash with LRU.
	c := smallCache(t, 8*64, 64, 8, nil)
	for round := 0; round < 3; round++ {
		for i := 0; i < 9; i++ {
			c.Access(uint64(i*64), 4, false)
		}
	}
	if c.Stats.ReadHits() != 0 {
		t.Fatalf("LRU must thrash on 9-line cycle: %+v", c.Stats)
	}
}

func TestResetClears(t *testing.T) {
	c := smallCache(t, 1024, 64, 2, nil)
	c.Access(0, 4, true)
	c.Reset()
	if c.Stats.Accesses() != 0 || c.MemAccesses != 0 {
		t.Fatal("reset must clear stats")
	}
	c.Access(0, 4, false)
	if c.Stats.ReadMisses() != 1 {
		t.Fatal("reset must clear contents")
	}
}

func TestZeroSizeAccessCountsOnce(t *testing.T) {
	c := smallCache(t, 1024, 64, 2, nil)
	c.Access(10, 0, false)
	if c.Stats.ReadAccesses() != 1 {
		t.Fatalf("zero-size access should count one line: %+v", c.Stats)
	}
}

func TestStatsCheckDetectsCorruption(t *testing.T) {
	// Accesses = hits + misses holds structurally (accesses are derived), so
	// the remaining invariant is replacements never exceeding misses.
	s := Stats{Hits: [2]uint64{1}, Misses: [2]uint64{1}, Repl: [2]uint64{5}}
	if err := s.Check(); err == nil {
		t.Fatal("read repl > misses must fail Check")
	}
	s = Stats{Hits: [2]uint64{0, 1}, Misses: [2]uint64{0, 1}, Repl: [2]uint64{0, 5}}
	if err := s.Check(); err == nil {
		t.Fatal("write repl > misses must fail Check")
	}
	s = Stats{Hits: [2]uint64{4, 2}, Misses: [2]uint64{3, 1}, Repl: [2]uint64{2, 1}}
	if err := s.Check(); err != nil {
		t.Fatalf("consistent stats must pass Check: %v", err)
	}
	if s.ReadAccesses() != 7 || s.WriteAccesses() != 3 || s.Accesses() != 10 {
		t.Fatalf("derived accesses wrong: %+v", s)
	}
}

// Property: counters stay consistent under random access streams, and a
// fully-covered working set re-read gives 100% hits.
func TestCacheInvariantsProperty(t *testing.T) {
	rng := num.NewRNG(5)
	f := func() bool {
		assoc := 1 << rng.Intn(3)
		sets := 1 << rng.Intn(4)
		c, err := New(Config{Name: "p", SizeBytes: sets * assoc * 64, LineBytes: 64, Assoc: assoc}, nil)
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			c.Access(uint64(rng.Intn(64*1024)), uint32(1+rng.Intn(8)), rng.Float64() < 0.3)
		}
		return c.Stats.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyTableIX86(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		L1D: Config{Name: "L1D", SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 8},
		L1I: Config{Name: "L1I", SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 8},
		L2:  Config{Name: "L2", SizeBytes: 512 * 1024, LineBytes: 64, Assoc: 8},
		L3:  Config{Name: "L3", SizeBytes: 32 * 1024 * 1024, LineBytes: 64, Assoc: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels()) != 4 {
		t.Fatalf("levels = %d want 4", len(h.Levels()))
	}
	if h.L2.Config().Sets() != 1024 || h.L3.Config().Sets() != 32768 {
		t.Fatalf("Table I set counts wrong: L2=%d L3=%d", h.L2.Config().Sets(), h.L3.Config().Sets())
	}
	// A data miss must propagate L1D → L2 → L3 → memory.
	h.Data(4096, 4, false)
	if h.L1D.Stats.ReadMisses() != 1 || h.L2.Stats.ReadMisses() != 1 || h.L3.Stats.ReadMisses() != 1 {
		t.Fatal("miss did not propagate through hierarchy")
	}
	if h.L3.MemAccesses != 1 {
		t.Fatalf("memory accesses = %d", h.L3.MemAccesses)
	}
	if err := h.CheckStats(); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyNoL3(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		L1D: Config{Name: "L1D", SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 8},
		L1I: Config{Name: "L1I", SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 8},
		L2:  Config{Name: "L2", SizeBytes: 2048 * 1024, LineBytes: 64, Assoc: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.L3 != nil || len(h.Levels()) != 3 {
		t.Fatal("RISC-V hierarchy must have no L3")
	}
	h.Data(0, 4, false)
	if h.L2.MemAccesses != 1 {
		t.Fatal("L2 must talk to memory directly without L3")
	}
}

func TestInstructionPathSharesL2(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		L1D: Config{Name: "L1D", SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L1I: Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L2:  Config{Name: "L2", SizeBytes: 8192, LineBytes: 64, Assoc: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Fetch(0, 4)
	h.Data(0, 4, false)
	// L1I miss then L1D miss both go to L2; second one hits in L2.
	if h.L2.Stats.ReadAccesses() != 2 || h.L2.Stats.ReadHits() != 1 {
		t.Fatalf("shared L2 stats: %+v", h.L2.Stats)
	}
}

func TestHierarchyReset(t *testing.T) {
	h, _ := NewHierarchy(HierarchyConfig{
		L1D: Config{Name: "L1D", SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L1I: Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L2:  Config{Name: "L2", SizeBytes: 8192, LineBytes: 64, Assoc: 2},
	})
	h.Data(0, 4, true)
	h.Fetch(64, 4)
	h.Reset()
	if h.L1D.Stats.Accesses() != 0 || h.L1I.Stats.Accesses() != 0 || h.L2.Stats.Accesses() != 0 {
		t.Fatal("reset must clear all levels")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{Name: "bad", SizeBytes: 7}, nil)
}

// TestResetEqualsFreshCache drives a random access stream through a
// hierarchy, resets it, and requires the complete state of every level to
// equal a hierarchy that was never used — on both branches of Reset: the
// journal (few cold fills: only the filled ways are cleared) and the
// overflow (a level filled past a quarter of its ways is cleared whole).
// A second stream after the reset must then behave exactly as on the fresh
// hierarchy, which it would not if a stale line, stamp or MRU slot survived.
func TestResetEqualsFreshCache(t *testing.T) {
	cfg := HierarchyConfig{
		L1D: Config{Name: "L1D", SizeBytes: 4096, LineBytes: 64, Assoc: 4},
		L1I: Config{Name: "L1I", SizeBytes: 4096, LineBytes: 64, Assoc: 2},
		L2:  Config{Name: "L2", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 8},
		L3:  Config{Name: "L3", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16},
	}
	mk := func() *Hierarchy {
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	stream := func(h *Hierarchy, rng *num.RNG, n, addrRange int) {
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(addrRange))
			if rng.Float64() < 0.2 {
				h.Fetch(addr&^63, 1)
			} else {
				h.Data(addr, uint32(1+rng.Intn(8)), rng.Float64() < 0.3)
			}
		}
	}
	rng := num.NewRNG(2203)
	for trial := 0; trial < 40; trial++ {
		h := mk()
		// Even trials stay within 12 lines (L1D's journal holds 16); odd
		// trials spread over 256 KiB and overflow L1D, L1I and L2.
		n, addrRange := 200, 12*64
		if trial%2 == 1 {
			n, addrRange = 3000, 256*1024
		}
		stream(h, rng, n, addrRange)
		if got, want := h.L1D.overflow, trial%2 == 1; got != want {
			t.Fatalf("trial %d: L1D overflow = %v, want %v (filled %d of %d ways)",
				trial, got, want, len(h.L1D.filled), len(h.L1D.lines))
		}
		if h.L3.overflow {
			t.Fatalf("trial %d: the 16 Ki-way L3 must stay on the journal branch", trial)
		}
		h.Reset()
		fresh := mk()
		if err := h.DiffState(fresh); err != nil {
			t.Fatalf("trial %d: reset state differs from a fresh hierarchy: %v", trial, err)
		}
		for _, lv := range h.Levels() {
			if len(lv.filled) != 0 || lv.overflow {
				t.Fatalf("trial %d: %s journal survived the reset", trial, lv.cfg.Name)
			}
		}
		seed := rng.Uint64()
		stream(h, num.NewRNG(seed), 500, 8192)
		stream(fresh, num.NewRNG(seed), 500, 8192)
		if err := h.DiffState(fresh); err != nil {
			t.Fatalf("trial %d: reset hierarchy diverges from a fresh one on reuse: %v", trial, err)
		}
	}
}
