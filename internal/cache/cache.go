// Package cache implements the parameterizable N-way set-associative cache
// hierarchy of the paper (§II-B, Table I): per-level LRU caches with
// write-back/write-allocate policy, chained so that misses propagate to the
// next level, and full per-level statistics (read/write accesses, hits,
// misses, and replacements) — the quantities the score predictor consumes
// (§III-D).
//
// # Hierarchy overview
//
// Config describes one level's geometry (size, line, associativity) and
// HierarchyConfig composes the levels: split L1D/L1I, a unified L2, and an
// optional L3, as the Table I targets have. Hierarchy instantiates them
// chained — Data and Fetch are the two entry points, routing demand
// accesses through L1D or L1I and letting each miss recurse into the next
// level, so one simulated access updates every level it touches exactly as
// the modelled inclusive hierarchy would. Each level's Stats (reachable
// through Levels) holds the per-level counters; they are stored as
// write-indexed arrays so the simulator hot path is branch-free, with the
// read/write split recovered by accessor methods (ReadAccesses,
// WriteMisses, ...).
//
// Replay entry points, fastest first:
//
//   - DataRun replays a whole uniform loop span (a lower.LoopRun) of
//     strided access sites in interleaved iteration order. A span may lead
//     with prologue sites (RunSite.Level 1 or 2), accessed once per row or
//     once per plane ahead of the rest, which the replay visits in that
//     stream order.
//   - TryDataRunResident is the resident-span fast path: if every line a
//     span touches is already resident in L1D, the span provably cannot
//     miss or evict, so hit counters, LRU stamps, dirty bits and MRU slots
//     are bulk-applied in O(distinct lines) — it probes side-effect-free
//     and reports false (leaving state untouched) the moment a
//     non-resident line appears, falling back to DataRun. Stamps are
//     stream ordinals in access units, prologue sites included, so rows or
//     planes fold into one linear walk only where no prologue sits between
//     them.
//   - FetchResident/FetchRun are the instruction-side counterpart: a
//     side-effect-free probe that a set of code lines is resident in L1I,
//     and a commit that applies a whole run of fetch-line crossings over
//     those lines at once. An L1I hit touches nothing but L1I's own hit
//     counter, LRU stamps and MRU slots — never L2 — so a run of hits
//     commutes with every data access around it and only the order of the
//     fetches among themselves matters. That order reaches the cache as
//     each line's last ordinal within the run, which is all the LRU state
//     keeps of it.
//   - Data/Fetch are the scalar per-access path, used for cold and
//     conflicting accesses and as the bit-identity reference in tests.
//
// All paths produce bit-identical statistics; the fuzz suites in
// datarun_test.go compare full internal state (lines, LRU order, MRU
// slots, stamps) against the scalar reference.
//
// Reset costs what the run touched, not what the geometry could hold: each
// level journals the ways its cold fills turned valid and clears exactly
// those (a level that filled more than a quarter of its ways is cleared
// whole), so a small candidate on the x86 profile no longer pays for
// zeroing the 8 MiB of line state behind its 32 MiB L3.
package cache

import "fmt"

// Config describes one cache level's geometry.
type Config struct {
	// Name labels the level (e.g. "L1D").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the cache-line size (64 B for all Table I CPUs).
	LineBytes int
	// Assoc is the number of ways per set.
	Assoc int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Validate checks that the geometry is consistent and power-of-two indexed.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// Counter indices of the Stats arrays: every per-kind counter is a [2]
// array indexed by KindRead/KindWrite, so the access hot path computes the
// index once (w := b2i(write)) instead of branching on the kind at every
// counter update.
const (
	KindRead  = 0
	KindWrite = 1
)

// b2i maps an access's write flag to its Stats counter index.
func b2i(write bool) int {
	if write {
		return KindWrite
	}
	return KindRead
}

// Stats are the per-level counters the predictor features are built from.
// Accesses are not stored: hits + misses is an invariant of the model, so
// the totals are derived by the accessor methods, which preserve the
// previous field-based API surface (ReadAccesses, WriteHits, ...) for the
// metrics/features consumers.
type Stats struct {
	// Hits/Misses count line accesses served by / missing this level,
	// indexed by KindRead/KindWrite.
	Hits   [2]uint64
	Misses [2]uint64
	// Repl counts valid-line evictions caused by read/write allocations,
	// indexed by KindRead/KindWrite.
	Repl [2]uint64
	// Writebacks counts dirty evictions forwarded to the next level.
	Writebacks uint64
}

// ReadAccesses returns total read accesses (hits + misses).
func (s Stats) ReadAccesses() uint64 { return s.Hits[KindRead] + s.Misses[KindRead] }

// WriteAccesses returns total write accesses (hits + misses).
func (s Stats) WriteAccesses() uint64 { return s.Hits[KindWrite] + s.Misses[KindWrite] }

// ReadHits returns read accesses that hit this level.
func (s Stats) ReadHits() uint64 { return s.Hits[KindRead] }

// WriteHits returns write accesses that hit this level.
func (s Stats) WriteHits() uint64 { return s.Hits[KindWrite] }

// ReadMisses returns read accesses that missed this level.
func (s Stats) ReadMisses() uint64 { return s.Misses[KindRead] }

// WriteMisses returns write accesses that missed this level.
func (s Stats) WriteMisses() uint64 { return s.Misses[KindWrite] }

// ReadRepl returns valid-line evictions caused by read allocations.
func (s Stats) ReadRepl() uint64 { return s.Repl[KindRead] }

// WriteRepl returns valid-line evictions caused by write allocations.
func (s Stats) WriteRepl() uint64 { return s.Repl[KindWrite] }

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 {
	return s.Hits[KindRead] + s.Misses[KindRead] + s.Hits[KindWrite] + s.Misses[KindWrite]
}

// Check verifies counter consistency invariants. (Hits + misses = accesses
// holds structurally now that accesses are derived.)
func (s Stats) Check() error {
	if s.Repl[KindRead] > s.Misses[KindRead] {
		return fmt.Errorf("cache: read replacements %d > read misses %d", s.Repl[KindRead], s.Misses[KindRead])
	}
	if s.Repl[KindWrite] > s.Misses[KindWrite] {
		return fmt.Errorf("cache: write replacements %d > write misses %d", s.Repl[KindWrite], s.Misses[KindWrite])
	}
	return nil
}

// line is one cache way. The valid and dirty flags are packed into the top
// bits of the tag word, keeping the struct at 16 bytes so a set scan
// touches half the memory of a bool-padded layout; line addresses never
// reach bit 62 (the virtual address space is tiny).
type line struct {
	tag uint64 // lineAddr | lineValid | lineDirty (0 = invalid)
	lru uint64 // last-use stamp; larger = more recent
}

const (
	dirtyShift  = 62
	lineValid   = uint64(1) << 63
	lineDirty   = uint64(1) << dirtyShift
	lineTagMask = lineDirty - 1
)

// Cache is one level of a set-associative write-back/write-allocate cache.
// A nil next level means misses are serviced by memory (counted by the
// owning Hierarchy).
type Cache struct {
	cfg Config
	// lines is the flat way storage: set s occupies lines[s*assoc:(s+1)*assoc].
	lines     []line
	assoc     int
	next      *Cache
	stamp     uint64
	lineShift uint
	setMask   uint64
	// mru holds the most-recently-used way per set; cache-friendly access
	// streams hit it on the first probe, skipping the way scan.
	mru []int32
	// filled journals the flat indices of the ways that went invalid→valid
	// since the last Reset, which then clears only those. It is capped at a
	// quarter of the ways; past the cap overflow is set and Reset clears
	// everything, as a run that fills that much is no longer small next to
	// the clear.
	filled   []int32
	overflow bool
	// Stats for this level.
	Stats Stats
	// MemAccesses counts accesses this level forwarded to memory (only
	// meaningful for the last level).
	MemAccesses uint64
	// miss is the hierarchy's miss observer on an L1 level (see
	// Hierarchy.ObserveMisses), nil everywhere else; fetch marks the L1I,
	// whose accesses it reports as instruction fetches.
	miss  MissFunc
	fetch bool
}

// New builds a cache level; next may be nil for the last level.
func New(cfg Config, next *Cache) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, next: next, assoc: cfg.Assoc}
	sets := cfg.Sets()
	c.mru = make([]int32, sets)
	c.lines = make([]line, sets*cfg.Assoc)
	for shift := uint(0); ; shift++ {
		if 1<<shift == cfg.LineBytes {
			c.lineShift = shift
			break
		}
	}
	c.setMask = uint64(sets - 1)
	return c, nil
}

// MustNew is New that panics on invalid geometry (for static tables).
func MustNew(cfg Config, next *Cache) *Cache {
	c, err := New(cfg, next)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the level's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access performs one access covering [addr, addr+size); accesses spanning
// multiple lines touch each line once. write selects the write path.
// It returns the deepest service depth across the touched lines: 1 means
// this level hit, 2 the next level, and so on; a miss in the last level
// returns one beyond the level count (memory). An access served below this
// level goes to the miss observer, if the level has one.
func (c *Cache) Access(addr uint64, size uint32, write bool) int {
	w := b2i(write)
	first := addr >> c.lineShift
	var depth int
	if size <= 1 || (addr+uint64(size)-1)>>c.lineShift == first {
		// Common case: the access stays within one line.
		depth = c.accessLine(first, w)
	} else {
		depth = c.accessSpan(first, (addr+uint64(size)-1)>>c.lineShift, w)
	}
	if depth > 1 && c.miss != nil {
		c.miss(addr, depth, write, c.fetch)
	}
	return depth
}

func (c *Cache) accessSpan(first, last uint64, w int) int {
	depth := 0
	for ln := first; ln <= last; ln++ {
		if d := c.accessLine(ln, w); d > depth {
			depth = d
		}
	}
	return depth
}

// accessLine handles one line-granular access and returns the service depth.
// w is the Stats counter index (KindRead/KindWrite); passing the index
// instead of a bool keeps the whole function branch-free on the access kind
// — counters index by w and the dirty bit is computed as w<<dirtyShift.
func (c *Cache) accessLine(lineAddr uint64, w int) int {
	si := lineAddr & c.setMask
	base := int(si) * c.assoc
	// Full line address as tag keeps the mapping injective; the valid bit
	// is part of the match word, so one compare tests validity and tag.
	tag := lineAddr | lineValid
	dirty := uint64(w) << dirtyShift
	c.stamp++
	// Hit? Probe the most-recently-used way first: temporally local streams
	// resolve there without scanning the set.
	if ln := &c.lines[base+int(c.mru[si])]; ln.tag&^lineDirty == tag {
		ln.lru = c.stamp
		ln.tag |= dirty
		c.Stats.Hits[w]++
		return 1
	}
	for i := 0; i < c.assoc; i++ {
		if ln := &c.lines[base+i]; ln.tag&^lineDirty == tag {
			ln.lru = c.stamp
			ln.tag |= dirty
			c.mru[si] = int32(i)
			c.Stats.Hits[w]++
			return 1
		}
	}
	// Miss.
	c.Stats.Misses[w]++
	// Fetch from next level (write-allocate: the line is read first).
	depth := 2
	if c.next != nil {
		depth = 1 + c.next.accessLine(lineAddr, KindRead)
	} else {
		c.MemAccesses++
	}
	// Choose victim: invalid way first, else LRU.
	victim := -1
	for i := 0; i < c.assoc; i++ {
		if c.lines[base+i].tag&lineValid == 0 {
			victim = i
			break
		}
		if victim < 0 || c.lines[base+i].lru < c.lines[base+victim].lru {
			victim = i
		}
	}
	v := &c.lines[base+victim]
	if v.tag&lineValid != 0 {
		// Valid line evicted: replacement.
		c.Stats.Repl[w]++
		if v.tag&lineDirty != 0 {
			c.Stats.Writebacks++
			if c.next != nil {
				c.next.accessLine(v.tag&lineTagMask, KindWrite)
			} else {
				c.MemAccesses++
			}
		}
	} else if len(c.filled) < len(c.lines)/4 {
		// Cold fill: the only way a line turns valid, journalled for Reset.
		c.filled = append(c.filled, int32(base+victim))
	} else {
		c.overflow = true
	}
	*v = line{tag: tag | dirty, lru: c.stamp}
	c.mru[si] = int32(victim)
	return depth
}

// findLine probes for a resident line and returns its flat way-storage
// index and set (-1 when absent), with no side effects on stats or LRU
// state — the read-only probe of the resident-span fast path.
func (c *Cache) findLine(lineAddr uint64) (int32, int32) {
	si := int32(lineAddr & c.setMask)
	base := si * int32(c.assoc)
	tag := lineAddr | lineValid
	if idx := base + c.mru[si]; c.lines[idx].tag&^lineDirty == tag {
		return idx, si
	}
	for i := int32(0); i < int32(c.assoc); i++ {
		if c.lines[base+i].tag&^lineDirty == tag {
			return base + i, si
		}
	}
	return -1, si
}

// Reset clears contents and statistics (cold caches, as the paper flushes
// caches before each benchmark repetition). Only the ways filled since the
// last Reset hold anything: a line turns valid on the cold-fill branch of
// accessLine alone, and a set's MRU slot moves only once one of its ways is
// valid, so clearing the journalled ways and their sets' slots leaves the
// level exactly as New built it.
func (c *Cache) Reset() {
	if c.overflow {
		clear(c.lines)
		clear(c.mru)
		c.overflow = false
	} else {
		for _, idx := range c.filled {
			c.lines[idx] = line{}
			c.mru[int(idx)/c.assoc] = 0
		}
	}
	c.filled = c.filled[:0]
	c.Stats = Stats{}
	c.MemAccesses = 0
	c.stamp = 0
}
