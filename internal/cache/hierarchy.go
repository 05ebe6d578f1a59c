package cache

import (
	"fmt"
	"math/bits"
)

// HierarchyConfig describes a full CPU cache hierarchy in the shape of
// Figure 3/Table I: split L1 (data + instruction), a unified L2, and an
// optional last-level L3 (only the x86 CPU of the paper has one).
type HierarchyConfig struct {
	L1D Config
	L1I Config
	L2  Config
	// L3 is optional; a zero SizeBytes means no L3.
	L3 Config
}

// HasL3 reports whether the hierarchy includes a last-level cache.
func (h HierarchyConfig) HasL3() bool { return h.L3.SizeBytes > 0 }

// Hierarchy is an instantiated cache hierarchy: L1D and L1I both miss into
// the unified L2, which misses into L3 (if present) and then memory.
type Hierarchy struct {
	Cfg HierarchyConfig
	L1D *Cache
	L1I *Cache
	L2  *Cache
	L3  *Cache // nil when absent
	// levels is what Levels returns, built once: Reset and the simulator's
	// Stats walk it for every candidate.
	levels []*Cache

	// touches is the reusable classification journal of the resident-span
	// fast path (Hierarchies are single-goroutine, like sim machines).
	touches []touch
}

// MissFunc observes one access served below L1: the access's address, the
// deepest service depth over the lines it touched (2 = L2, 3 = L3 or
// memory, ...), whether it was a write, and whether it was an instruction
// fetch.
type MissFunc func(addr uint64, depth int, write, fetch bool)

// NewHierarchy builds the hierarchy from a configuration.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	var l3 *Cache
	var err error
	if cfg.HasL3() {
		l3, err = New(cfg.L3, nil)
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	l2, err := New(cfg.L2, l3)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	l1d, err := New(cfg.L1D, l2)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	l1i, err := New(cfg.L1I, l2)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	l1i.fetch = true
	h := &Hierarchy{Cfg: cfg, L1D: l1d, L1I: l1i, L2: l2, L3: l3, levels: []*Cache{l1d, l1i, l2}}
	if l3 != nil {
		h.levels = append(h.levels, l3)
	}
	return h, nil
}

// ObserveMisses reports every later access served below L1 to f, in access
// order (nil stops it): Data, Fetch and DataRun's per-access replay report,
// while the resident fast paths (TryDataRunResident, FetchRun) apply hits
// only and have nothing to report. A timing model charges its latencies from
// here instead of replaying a hierarchy of its own. The observer lives on the
// two L1 levels, where Cache.Access tests for it only once an access has
// missed; the IA simulator never sets one.
func (h *Hierarchy) ObserveMisses(f MissFunc) {
	h.L1D.miss = f
	h.L1I.miss = f
}

// Data performs a data access of size bytes and returns the service depth
// (1 = L1D, 2 = L2, 3 = L3 or memory, ...).
func (h *Hierarchy) Data(addr uint64, size uint32, write bool) int {
	return h.L1D.Access(addr, size, write)
}

// Fetch performs an instruction fetch (read) of size bytes and returns the
// service depth.
func (h *Hierarchy) Fetch(addr uint64, size uint32) int {
	return h.L1I.Access(addr, size, false)
}

// RunSite is one strided data access of a uniform loop span (the cache-side
// mirror of the executor protocol's loop-run site): the address at the
// first iteration plus per-iteration (Step), per-row (RowStep) and per-plane
// (PlaneStep) deltas. Level says how often the span accesses the site: 0 at
// every iteration, 1 once per row ahead of the row's iterations (a row
// prologue), 2 once per plane ahead of the plane's rows (a plane prologue).
// A span lists its sites highest level first.
//
// A site of level 0 may have an active window, outside which it makes no
// access: Hi > 0 limits it to iterations [Lo,Hi) of every row, RowHi > 0 to
// rows [RowLo,RowHi) of every plane (a zero Hi or RowHi sets no limit).
// Addr and the steps still describe every iteration, in the window or not.
type RunSite struct {
	Addr         uint64
	Step         int64
	RowStep      int64
	PlaneStep    int64
	Lo, Hi       int32
	RowLo, RowHi int32
	Size         uint16
	Write        bool
	Level        uint8
}

// windowed reports whether the site has an active window.
func (s *RunSite) windowed() bool { return s.Hi != 0 || s.RowHi != 0 }

// holds reports whether the site's window holds iteration i of row j.
func (s *RunSite) holds(i, j int) bool {
	return (s.Hi == 0 || int32(i) >= s.Lo && int32(i) < s.Hi) &&
		(s.RowHi == 0 || int32(j) >= s.RowLo && int32(j) < s.RowHi)
}

// DataRun replays planes×rows×count iterations of interleaved strided
// accesses through the data hierarchy, in exactly the order per-access Data
// calls would take: per plane its prologue sites, then per row the row's
// prologue sites and the row's iterations, each iteration skipping the
// sites whose window does not hold it. Living inside the cache package
// lets it reach accessLine directly, which removes the per-access wrapper
// cost of the hottest simulator loop. Spans whose lines are all resident in
// L1D and that have no windowed site take the bulk resident fast path (see
// TryDataRunResident); the result is bit-identical either way.
func (h *Hierarchy) DataRun(count, rows, planes int, sites []RunSite) {
	if rows < 1 {
		rows = 1
	}
	if planes < 1 {
		planes = 1
	}
	planeSites, rowSites, iterSites := splitLevels(sites)
	windowed := false
	for s := range iterSites {
		windowed = windowed || iterSites[s].windowed()
	}
	if !windowed && h.TryDataRunResident(count, rows, planes, sites) {
		return
	}
	l1d := h.L1D
	for k := 0; k < planes; k++ {
		for s := range planeSites {
			st := &planeSites[s]
			l1d.Access(st.Addr+uint64(int64(k)*st.PlaneStep), uint32(st.Size), st.Write)
		}
		for j := 0; j < rows; j++ {
			for s := range rowSites {
				st := &rowSites[s]
				l1d.Access(st.Addr+uint64(int64(k)*st.PlaneStep+int64(j)*st.RowStep), uint32(st.Size), st.Write)
			}
			for i := 0; i < count; i++ {
				for s := range iterSites {
					st := &iterSites[s]
					if windowed && !st.holds(i, j) {
						continue
					}
					addr := st.Addr + uint64(int64(k)*st.PlaneStep+int64(j)*st.RowStep+int64(i)*st.Step)
					w := b2i(st.Write)
					first := addr >> l1d.lineShift
					var depth int
					if st.Size <= 1 || (addr+uint64(st.Size)-1)>>l1d.lineShift == first {
						depth = l1d.accessLine(first, w)
					} else {
						depth = l1d.accessSpan(first, (addr+uint64(st.Size)-1)>>l1d.lineShift, w)
					}
					if depth > 1 && l1d.miss != nil {
						l1d.miss(addr, depth, st.Write, false)
					}
				}
			}
		}
	}
}

// splitLevels cuts a span's sites, highest level first, into the plane
// prologue, the row prologue and the per-iteration sites.
func splitLevels(sites []RunSite) (plane, row, iter []RunSite) {
	if len(sites) == 0 || sites[0].Level == 0 {
		return nil, nil, sites
	}
	p := 0
	for p < len(sites) && sites[p].Level == 2 {
		p++
	}
	r := p
	for r < len(sites) && sites[r].Level == 1 {
		r++
	}
	return sites[:p], sites[p:r], sites[r:]
}

// touch is one distinct line visit recorded by the resident-span
// classification pass: the line's flat way-storage index, its set, the LRU
// stamp the line holds after the span (the stamp of its last access within
// the span), and the dirty bit contributed by write sites.
type touch struct {
	stamp uint64
	dirty uint64
	idx   int32
	set   int32
}

const (
	// residentMinAccesses gates the fast path: spans with fewer accesses
	// replay scalar — the classification pass would cost more than it saves.
	residentMinAccesses = 8
	// maxResidentTouches bounds the classification journal (pathologically
	// line-dense spans fall back to the scalar replay).
	maxResidentTouches = 4096
)

// TryDataRunResident attempts the resident-span fast path: when every line
// the span touches is already resident in L1D, no access can miss — hits
// never evict — so the span's only effects are hit counters, LRU stamps,
// MRU slots and dirty bits. Those are computed in O(distinct line visits)
// instead of O(accesses): a read-only probe pass walks each site's strided
// line segments, records the final stamp each line would carry (the stamp
// of its last access, derived arithmetically from the span's stream order),
// and bails without side effects on the first non-resident line. The commit
// pass then applies stamps max-wise (a line revisited across
// rows/planes/sites keeps its latest stamp) and maintains the per-set MRU
// invariant, leaving cache state bit-identical to the scalar replay.
//
// Stamps count accesses: a row is its prologue sites plus count iterations
// of the per-iteration sites, a plane its prologue sites plus rows rows,
// and a site's access at any position has a closed-form stream ordinal. A
// prologue site is walked like an iteration site whose iterations are the
// rows (or planes) it repeats over.
//
// The probe pass enumerates per site, not in access order — the journal is
// order-independent — which lets a site whose rows (and planes) continue
// each other in memory and in stream order (RowStep == Count*Step and no
// row prologue between them; likewise for planes) collapse into one linear
// walk over its whole address range. The stamp of a line's last access
// needs only that access's ordinal, which the linear walk preserves.
//
// Sites whose accesses could straddle a line boundary (size not a
// power-of-two divisor of the line size, or misaligned address/steps),
// negative steps along a site's walk and sites with an active window fall
// back: with windows an access's stream ordinal is no longer linear in its
// position (a closed form for it, walking each window row by row, measured
// no cheaper than the per-access replay on paper_pipeline). It reports
// whether the span was applied.
func (h *Hierarchy) TryDataRunResident(count, rows, planes int, sites []RunSite) bool {
	l1 := h.L1D
	if len(sites) == 0 || count < 1 || rows < 1 || planes < 1 {
		return false
	}
	planeSites, rowSites, iterSites := splitLevels(sites)
	// Accesses per row and per plane: the stream-order distance between
	// one row's (plane's) access to a site and the next row's (plane's).
	ordRow := uint64(len(rowSites)) + uint64(count)*uint64(len(iterSites))
	ordPlane := uint64(len(planeSites)) + uint64(rows)*ordRow
	total := uint64(planes) * ordPlane
	if total < residentMinAccesses {
		return false
	}
	shift := l1.lineShift
	lineBytes := uint64(1) << shift
	tr := h.touches[:0]
	stamp0 := l1.stamp
	for s := range sites {
		st := &sites[s]
		sz := uint64(st.Size)
		if sz == 0 {
			sz = 1
		}
		// The site's walk: cnt accesses step bytes and ordStep stream
		// positions apart, repeated over rEff rows and pEff planes.
		cnt, step, ordStep := count, st.Step, uint64(len(iterSites))
		rEff, rowStep, pEff, planeStep := rows, st.RowStep, planes, st.PlaneStep
		switch st.Level {
		case 1:
			cnt, step, ordStep, rEff = rows, st.RowStep, ordRow, 1
		case 2:
			cnt, step, ordStep, rEff, pEff = planes, st.PlaneStep, ordPlane, 1, 1
		}
		// Alignment test: a power-of-two size that divides the line size,
		// with address and live steps all size-aligned, can never cross a
		// line boundary (two's complement keeps the low bits of negative
		// steps, so the OR works for them too).
		or := st.Addr | uint64(step)
		if rEff > 1 {
			or |= uint64(rowStep)
		}
		if pEff > 1 {
			or |= uint64(planeStep)
		}
		if step < 0 || sz&(sz-1) != 0 || sz > lineBytes || or&(sz-1) != 0 || st.windowed() {
			h.touches = tr
			return false
		}
		stepU := uint64(step)
		// Power-of-two steps (the overwhelmingly common strides) replace the
		// per-line division below by a shift; stepLog < 0 marks the rest.
		stepLog := -1
		if stepU&(stepU-1) == 0 {
			stepLog = bits.TrailingZeros64(stepU)
		}
		dirty := uint64(b2i(st.Write)) << dirtyShift
		// Fold rows (then planes) into the inner walk when they continue
		// each other in memory and in stream order: the access ordinal stays
		// the segment-local index, so stamps are unchanged and line visits
		// collapse.
		cEff := uint64(cnt)
		if rEff > 1 && uint64(rowStep) == cEff*stepU && ordRow == cEff*ordStep {
			cEff *= uint64(rEff)
			rEff = 1
		}
		if rEff == 1 && pEff > 1 && uint64(planeStep) == cEff*stepU && ordPlane == cEff*ordStep {
			cEff *= uint64(pEff)
			pEff = 1
		}
		cm1 := cEff - 1
		stampOff := stamp0 + uint64(s) + 1 // sites are in stream order within a row
		for k := 0; k < pEff; k++ {
			segBase := st.Addr + uint64(int64(k)*planeStep)
			ordK := stampOff + uint64(k)*ordPlane
			for j := 0; j < rEff; j++ {
				base := segBase + uint64(int64(j)*rowStep)
				ordBase := ordK + uint64(j)*ordRow
				line := base >> shift
				last := (base + cm1*stepU) >> shift
				if line == last {
					// Whole segment on one line (always for a zero step).
					idx, set := l1.findLine(line)
					if idx < 0 || len(tr) >= maxResidentTouches {
						h.touches = tr
						return false
					}
					tr = append(tr, touch{stamp: ordBase + cm1*ordStep, dirty: dirty, idx: idx, set: set})
					continue
				}
				for i := uint64(0); ; {
					iLast := cm1
					if line != last {
						span := ((line + 1) << shift) - 1 - base
						if stepLog >= 0 {
							iLast = span >> stepLog
						} else {
							iLast = span / stepU
						}
					}
					idx, set := l1.findLine(line)
					if idx < 0 || len(tr) >= maxResidentTouches {
						h.touches = tr
						return false
					}
					tr = append(tr, touch{stamp: ordBase + iLast*ordStep, dirty: dirty, idx: idx, set: set})
					if iLast == cm1 {
						break
					}
					i = iLast + 1
					line = (base + i*stepU) >> shift
				}
			}
		}
	}
	// Commit: every access is an L1D hit. Stamps apply max-wise — within
	// one (plane,row) a line shared by two sites gets its later stamp even
	// when the earlier-indexed site touched it at a later iteration — and
	// the MRU slot follows the running per-set maximum (pre-span MRU always
	// holds the set's max LRU, and every span stamp exceeds pre-span ones).
	assoc := int32(l1.assoc)
	for t := range tr {
		e := &tr[t]
		ln := &l1.lines[e.idx]
		ln.tag |= e.dirty
		if e.stamp > ln.lru {
			ln.lru = e.stamp
			if e.stamp >= l1.lines[e.set*assoc+l1.mru[e.set]].lru {
				l1.mru[e.set] = e.idx - e.set*assoc
			}
		}
	}
	perIter := uint64(planes) * uint64(rows) * uint64(count)
	for s := range sites {
		n := perIter
		switch sites[s].Level {
		case 1:
			n = uint64(planes) * uint64(rows)
		case 2:
			n = uint64(planes)
		}
		l1.Stats.Hits[b2i(sites[s].Write)] += n
	}
	l1.stamp = stamp0 + total
	h.touches = tr[:0]
	return true
}

// FetchResident reports whether every code line in lines (byte addresses, as
// Fetch takes them) is resident in L1I. It has no side effects, so a caller
// may probe, get false, and carry on with scalar Fetch calls as if it had
// never asked.
func (h *Hierarchy) FetchResident(lines []uint64) bool {
	l1 := h.L1I
	for _, addr := range lines {
		if idx, _ := l1.findLine(addr >> l1.lineShift); idx < 0 {
			return false
		}
	}
	return true
}

// FetchRun applies a run of total instruction fetches over lines, every one
// of which FetchResident has just reported resident: each fetch is an L1I
// hit, so the run's whole effect is total read hits, total stamp ticks, and
// on each line the stamp of its last fetch — lastOrdinals[i] is the 1-based
// position of lines[i]'s last fetch within the run, 0 if the run never
// fetched it. Stamps apply max-wise (two addresses may share a cache line
// when L1I lines are wider than the caller's) and the MRU slot follows the
// running per-set maximum, as in TryDataRunResident. State ends bit-identical
// to total scalar Fetch calls in the run's order, wherever the data accesses
// of the same stretch fall: they never reach L1I, and L1I hits never leave
// it.
func (h *Hierarchy) FetchRun(total uint64, lines, lastOrdinals []uint64) {
	l1 := h.L1I
	stamp0 := l1.stamp
	assoc := int32(l1.assoc)
	for i, addr := range lines {
		if lastOrdinals[i] == 0 {
			continue
		}
		idx, set := l1.findLine(addr >> l1.lineShift)
		ln := &l1.lines[idx]
		if stamp := stamp0 + lastOrdinals[i]; stamp > ln.lru {
			ln.lru = stamp
			if stamp >= l1.lines[set*assoc+l1.mru[set]].lru {
				l1.mru[set] = idx - set*assoc
			}
		}
	}
	l1.Stats.Hits[KindRead] += total
	l1.stamp = stamp0 + total
}

// Levels returns the instantiated levels with names, in L1D, L1I, L2[, L3]
// order (the fixed feature ordering used by the predictor). The slice is
// the hierarchy's own: read it, do not change it.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	for _, c := range h.Levels() {
		c.Reset()
	}
}

// DiffState compares the complete internal state of two hierarchies of one
// geometry — every way's tag, dirty bit and LRU stamp, the MRU slots, the
// stamp counters and all statistics — and describes the first difference,
// or returns nil. This is what "bit-identical" means for the model, and
// what the differential suites of this package, sim and lower hold the
// replay fast paths to: a statistics-only comparison would miss an LRU
// divergence that only shows accesses later.
func (h *Hierarchy) DiffState(other *Hierarchy) error {
	for i, a := range h.Levels() {
		if err := a.diffState(other.Levels()[i]); err != nil {
			return fmt.Errorf("%s: %w", a.cfg.Name, err)
		}
	}
	return nil
}

func (c *Cache) diffState(o *Cache) error {
	if c.stamp != o.stamp {
		return fmt.Errorf("stamp %d != %d", c.stamp, o.stamp)
	}
	if c.Stats != o.Stats {
		return fmt.Errorf("stats %+v != %+v", c.Stats, o.Stats)
	}
	if c.MemAccesses != o.MemAccesses {
		return fmt.Errorf("mem accesses %d != %d", c.MemAccesses, o.MemAccesses)
	}
	for i := range c.lines {
		if c.lines[i] != o.lines[i] {
			return fmt.Errorf("line %d: %+v != %+v", i, c.lines[i], o.lines[i])
		}
	}
	for i := range c.mru {
		if c.mru[i] != o.mru[i] {
			return fmt.Errorf("mru[%d]: %d != %d", i, c.mru[i], o.mru[i])
		}
	}
	return nil
}

// CheckStats validates counter invariants on every level.
func (h *Hierarchy) CheckStats() error {
	for _, c := range h.Levels() {
		if err := c.Stats.Check(); err != nil {
			return fmt.Errorf("%s: %w", c.Config().Name, err)
		}
	}
	return nil
}
