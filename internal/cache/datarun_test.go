package cache

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/num"
)

// testHierarchy builds a small hierarchy whose L1D is tight enough that
// random spans regularly overflow sets (distinct lines per set > assoc),
// forcing evictions mid-span and rejections of the resident fast path.
func testHierarchy(t *testing.T, l1Sets, l1Assoc int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		L1D: Config{Name: "L1D", SizeBytes: l1Sets * l1Assoc * 64, LineBytes: 64, Assoc: l1Assoc},
		L1I: Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L2:  Config{Name: "L2", SizeBytes: 16 * 1024, LineBytes: 64, Assoc: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// referenceDataRun is the per-access replay the fast path must be
// bit-identical to: every access goes through the public Data path in
// stream order — per plane its prologue sites, per row the row's prologue
// sites, then the row's interleaved iterations, each iteration's sites
// where their windows hold.
func referenceDataRun(h *Hierarchy, count, rows, planes int, sites []RunSite) {
	if rows < 1 {
		rows = 1
	}
	if planes < 1 {
		planes = 1
	}
	access := func(level uint8, k, j, i int) {
		for s := range sites {
			if st := &sites[s]; st.Level == level {
				if st.Hi > 0 && (i < int(st.Lo) || i >= int(st.Hi)) || st.RowHi > 0 && (j < int(st.RowLo) || j >= int(st.RowHi)) {
					continue
				}
				addr := st.Addr + uint64(int64(k)*st.PlaneStep+int64(j)*st.RowStep+int64(i)*st.Step)
				h.Data(addr, uint32(st.Size), st.Write)
			}
		}
	}
	for k := 0; k < planes; k++ {
		access(2, k, 0, 0)
		for j := 0; j < rows; j++ {
			access(1, k, j, 0)
			for i := 0; i < count; i++ {
				access(0, k, j, i)
			}
		}
	}
}

// randomSpan draws one LoopRun-shaped span. Steps, sizes and addresses are
// biased to cover the fast path's edge cases: zero and negative steps,
// non-power-of-two steps and sizes, misaligned bases (multi-line accessSpan
// crossings), row/plane strides that fold into contiguous walks, and
// strides that slam every row into the same set. One span in three leads
// with prologue sites — per plane, per row or both, highest level first —
// which break the folds their rows and planes would otherwise allow.
func randomSpan(rng *num.RNG, setSpan int64, compact bool) (count, rows, planes int, sites []RunSite) {
	count = 1 + rng.Intn(40)
	rows = 1 + rng.Intn(4)
	planes = 1 + rng.Intn(3)
	steps := []int64{0, 4, 4, 4, 8, 12, 64, 100, -4, -8}
	sizes := []uint16{1, 4, 4, 4, 8, 16, 12}
	addrRange := 1 << 14
	if compact {
		// Footprint small enough to sit fully in a 4 KiB L1D once warmed.
		count = 2 + rng.Intn(10)
		steps = []int64{0, 4, 4, 8}
		sizes = []uint16{4, 4, 4, 8}
		addrRange = 2048
	}
	var levels []uint8
	if rng.Intn(3) == 0 {
		levels = [][]uint8{{2}, {1}, {2, 1}, {1, 1}}[rng.Intn(4)]
	}
	ns := 1 + rng.Intn(3)
	for s := 0; s < len(levels)+ns; s++ {
		step := steps[rng.Intn(len(steps))]
		rowStep := []int64{0, 4, int64(count) * step, 112, setSpan, -64}[rng.Intn(6)]
		planeStep := []int64{0, int64(rows) * rowStep, 3136, setSpan * 2}[rng.Intn(4)]
		if compact {
			rowStep = []int64{0, int64(count) * step, 112}[rng.Intn(3)]
			planeStep = []int64{0, int64(rows) * rowStep, 256}[rng.Intn(3)]
		}
		addr := uint64(rng.Intn(addrRange))
		if rng.Float64() < 0.7 {
			addr &^= 3 // mostly element-aligned, sometimes not
		}
		site := RunSite{
			Addr:      addr,
			Step:      step,
			RowStep:   rowStep,
			PlaneStep: planeStep,
			Size:      sizes[rng.Intn(len(sizes))],
			Write:     rng.Float64() < 0.25,
		}
		if s < len(levels) {
			site.Level = levels[s]
		}
		sites = append(sites, site)
	}
	return count, rows, planes, sites
}

// TestDataRunBitIdenticalFuzz replays random spans through DataRun (which
// takes the resident fast path whenever it can) and through the per-access
// reference on twin hierarchies, requiring the complete cache state to stay
// equal after every span. Pre-warm accesses and tight L1D geometries make
// both outcomes common: spans fully resident (fast path applies) and spans
// that miss or conflict (fast path must reject without side effects).
func TestDataRunBitIdenticalFuzz(t *testing.T) {
	rng := num.NewRNG(77)
	fastTaken, fallback, prologueFast := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		// Even trials use tight geometries that force conflicts; odd trials
		// use a roomy L1D and compact spans so warmed replays go resident.
		sets, assoc := 1<<(1+rng.Intn(4)), 1<<rng.Intn(3)
		compact := trial%2 == 1
		if compact {
			sets, assoc = 16, 4
		}
		fast := testHierarchy(t, sets, assoc)
		ref := testHierarchy(t, sets, assoc)
		fastMisses, refMisses := observe(fast), observe(ref)
		// Pre-warm both with an identical random access stream so residency
		// state at span entry varies per trial.
		for i := 0; i < rng.Intn(300); i++ {
			addr := uint64(rng.Intn(1 << 13))
			size := uint32(1 + rng.Intn(8))
			write := rng.Float64() < 0.3
			fast.Data(addr, size, write)
			ref.Data(addr, size, write)
		}
		setSpan := int64(sets * 64) // row stride hitting one set every row
		for span := 0; span < 4; span++ {
			count, rows, planes, sites := randomSpan(rng, setSpan, compact)
			// Replaying the same span twice makes the second pass hit warm
			// lines — the resident fast path's home turf — while the first
			// pass covers cold and mixed residency.
			for rep := 0; rep < 2; rep++ {
				// Tally which path DataRun will take (probe on a throwaway
				// clone so the tally itself cannot perturb the comparison).
				probe := testHierarchy(t, sets, assoc)
				copyHierarchyState(probe, fast)
				if probe.TryDataRunResident(count, rows, planes, sites) {
					fastTaken++
					if sites[0].Level > 0 {
						prologueFast++
					}
				} else {
					fallback++
				}
				fast.DataRun(count, rows, planes, sites)
				referenceDataRun(ref, count, rows, planes, sites)
				if err := fast.DiffState(ref); err != nil {
					t.Fatalf("trial %d span %d rep %d (count=%d rows=%d planes=%d sites=%+v): %v",
						trial, span, rep, count, rows, planes, sites, err)
				}
				if !reflect.DeepEqual(*fastMisses, *refMisses) {
					t.Fatalf("trial %d span %d rep %d: DataRun reported misses %v, per-access Data %v",
						trial, span, rep, *fastMisses, *refMisses)
				}
			}
		}
	}
	if fastTaken == 0 || fallback == 0 || prologueFast == 0 {
		t.Fatalf("fuzz must exercise both paths, prologues on the fast one: fast=%d (prologue %d) fallback=%d",
			fastTaken, prologueFast, fallback)
	}
	t.Logf("spans via fast path: %d (with prologue sites %d), via scalar fallback: %d", fastTaken, prologueFast, fallback)
}

// missReport is one call of a hierarchy's miss observer.
type missReport struct {
	addr         uint64
	depth        int
	write, fetch bool
}

// observe has h log every miss report it makes.
func observe(h *Hierarchy) *[]missReport {
	var log []missReport
	h.ObserveMisses(func(addr uint64, depth int, write, fetch bool) {
		log = append(log, missReport{addr, depth, write, fetch})
	})
	return &log
}

// TestObserveMissesReportsEachAccessBelowL1 drives a random stream of data
// accesses (some straddling lines) and fetches through a tight hierarchy:
// the observer must hear of exactly the accesses whose service depth, as
// Data and Fetch return it, is below L1, in order, with that depth — the
// deepest over the lines an access touched.
func TestObserveMissesReportsEachAccessBelowL1(t *testing.T) {
	h := testHierarchy(t, 4, 2)
	got := observe(h)
	var want []missReport
	rng := num.NewRNG(5)
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(1 << 14))
		if rng.Float64() < 0.3 {
			if d := h.Fetch(addr&^63, 1); d > 1 {
				want = append(want, missReport{addr &^ 63, d, false, true})
			}
			continue
		}
		size, write := uint32(1+rng.Intn(16)), rng.Float64() < 0.3
		if d := h.Data(addr, size, write); d > 1 {
			want = append(want, missReport{addr, d, write, false})
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(*got, want) {
		t.Fatalf("observer heard %d reports, want the %d accesses served below L1", len(*got), len(want))
	}
	h.ObserveMisses(nil)
	h.Reset()
	h.Data(0, 4, false)
	if n := len(*got); n != len(want) {
		t.Fatalf("a removed observer still hears misses: %d reports", n)
	}
}

// copyHierarchyState clones the complete mutable state of src into dst
// (same geometry assumed).
func copyHierarchyState(dst, src *Hierarchy) {
	for i, lv := range src.Levels() {
		d := dst.Levels()[i]
		copy(d.lines, lv.lines)
		copy(d.mru, lv.mru)
		d.stamp = lv.stamp
		d.Stats = lv.Stats
		d.MemAccesses = lv.MemAccesses
	}
}

// TestDataRunResidentRejectsWithoutSideEffects pins the fast path's abort
// contract: a span that probes some resident lines before hitting a
// non-resident one must leave the hierarchy untouched.
func TestDataRunResidentRejectsWithoutSideEffects(t *testing.T) {
	h := testHierarchy(t, 4, 2)
	// Make lines 0 and 1 resident; line 100 is not.
	h.Data(0, 4, false)
	h.Data(64, 4, false)
	before := testHierarchy(t, 4, 2)
	copyHierarchyState(before, h)
	sites := []RunSite{
		{Addr: 0, Step: 4, Size: 4},        // resident
		{Addr: 100 * 64, Step: 4, Size: 4}, // not resident
	}
	if h.TryDataRunResident(16, 1, 1, sites) {
		t.Fatal("span with a non-resident line must be rejected")
	}
	if err := h.DiffState(before); err != nil {
		t.Fatalf("rejected span mutated state: %v", err)
	}
	// The same for a prologue site: resident iteration sites, and a row
	// prologue whose second row lands on a non-resident line.
	sites = []RunSite{
		{Addr: 0, RowStep: 100 * 64, Size: 4, Level: 1},
		{Addr: 0, Step: 4, RowStep: 4, Size: 4},
		{Addr: 64, Step: 4, Size: 4, Write: true},
	}
	if h.TryDataRunResident(8, 2, 1, sites) {
		t.Fatal("span with a non-resident prologue line must be rejected")
	}
	if err := h.DiffState(before); err != nil {
		t.Fatalf("rejected prologue span mutated state: %v", err)
	}
}

// TestDataRunResidentSetConflictFallsBack forces more distinct lines into
// one set than it has ways: they cannot all be resident, so the fast path
// must reject and the scalar replay must evict — and both must agree.
func TestDataRunResidentSetConflictFallsBack(t *testing.T) {
	const sets, assoc = 4, 2
	fast := testHierarchy(t, sets, assoc)
	ref := testHierarchy(t, sets, assoc)
	setSpan := int64(sets * 64)
	// rows alias to the same set: 3 distinct lines for 2 ways.
	sites := []RunSite{{Addr: 0, Step: 4, RowStep: setSpan, Size: 4}}
	fast.DataRun(16, 3, 1, sites)
	referenceDataRun(ref, 16, 3, 1, sites)
	if err := fast.DiffState(ref); err != nil {
		t.Fatal(err)
	}
	if got := fast.L1D.Stats.ReadRepl(); got == 0 {
		t.Fatal("set-conflict span must evict in a 2-way set")
	}
}

// TestDataRunCrossingSpansFallBack drives accesses that straddle line
// boundaries (accessSpan path) through DataRun: the fast path must refuse
// them (misaligned size/address) and the fallback must count one access
// per touched line, exactly like the reference.
func TestDataRunCrossingSpansFallBack(t *testing.T) {
	fast := testHierarchy(t, 8, 2)
	ref := testHierarchy(t, 8, 2)
	// 8-byte accesses at 60 mod 64: every access covers two lines.
	sites := []RunSite{{Addr: 60, Step: 64, Size: 8}}
	fast.DataRun(12, 1, 1, sites)
	referenceDataRun(ref, 12, 1, 1, sites)
	if err := fast.DiffState(ref); err != nil {
		t.Fatal(err)
	}
	if got := fast.L1D.Stats.ReadAccesses(); got != 24 {
		t.Fatalf("12 crossing accesses must touch 24 lines, got %d", got)
	}
}

// TestDataRunResidentAppliesBulk pins the happy path: a fully-resident 3D
// span must be applied (all hits, no misses) and leave state identical to
// the reference replay.
func TestDataRunResidentAppliesBulk(t *testing.T) {
	fast := testHierarchy(t, 8, 4)
	ref := testHierarchy(t, 8, 4)
	sites := []RunSite{
		{Addr: 0, Step: 4, RowStep: 48, PlaneStep: 192, Size: 4},
		{Addr: 1024, Step: 4, RowStep: 12, PlaneStep: 36, Size: 4, Write: true},
	}
	// Warm every line the span will touch.
	referenceDataRun(fast, 3, 4, 2, sites)
	referenceDataRun(ref, 3, 4, 2, sites)
	misses := fast.L1D.Stats.ReadMisses() + fast.L1D.Stats.WriteMisses()
	if !fast.TryDataRunResident(3, 4, 2, sites) {
		t.Fatal("warmed span must take the fast path")
	}
	referenceDataRun(ref, 3, 4, 2, sites)
	if err := fast.DiffState(ref); err != nil {
		t.Fatal(err)
	}
	if got := fast.L1D.Stats.ReadMisses() + fast.L1D.Stats.WriteMisses(); got != misses {
		t.Fatalf("resident span must not miss: %d -> %d", misses, got)
	}
}

// TestDataRunWindowedSites replays random spans whose per-iteration sites
// carry active windows — along the row, over the rows, or both — through
// DataRun and through the per-access reference: the complete cache state
// and every miss report must agree, and the resident fast path, which does
// not take windows, must decline every windowed span without side effects.
func TestDataRunWindowedSites(t *testing.T) {
	rng := num.NewRNG(49)
	windowed := 0
	for trial := 0; trial < 300; trial++ {
		compact := trial%2 == 1
		sets, assoc := 1<<(1+rng.Intn(4)), 1<<rng.Intn(3)
		if compact {
			sets, assoc = 16, 4
		}
		fast, ref := testHierarchy(t, sets, assoc), testHierarchy(t, sets, assoc)
		fastMisses, refMisses := observe(fast), observe(ref)
		for span := 0; span < 4; span++ {
			count, rows, planes, sites := randomSpan(rng, int64(sets*64), compact)
			for s := range sites {
				st := &sites[s]
				if st.Level != 0 || rng.Intn(2) == 0 {
					continue
				}
				if w := rng.Intn(3); w != 1 {
					lo := rng.Intn(count)
					st.Lo, st.Hi = int32(lo), int32(lo+1+rng.Intn(count-lo))
				}
				if w := rng.Intn(3); w != 1 {
					lo := rng.Intn(rows)
					st.RowLo, st.RowHi = int32(lo), int32(lo+1+rng.Intn(rows-lo))
				}
			}
			isWindowed := slices.ContainsFunc(sites, func(st RunSite) bool { return st.Hi > 0 || st.RowHi > 0 })
			// Twice, so the second replay finds the lines resident.
			for rep := 0; rep < 2; rep++ {
				if isWindowed {
					windowed++
					before := testHierarchy(t, sets, assoc)
					copyHierarchyState(before, fast)
					if fast.TryDataRunResident(count, rows, planes, sites) {
						t.Fatalf("trial %d span %d: the resident path took windowed sites %+v", trial, span, sites)
					}
					if err := fast.DiffState(before); err != nil {
						t.Fatalf("trial %d span %d: declining a windowed span changed state: %v", trial, span, err)
					}
				}
				fast.DataRun(count, rows, planes, sites)
				referenceDataRun(ref, count, rows, planes, sites)
				if err := fast.DiffState(ref); err != nil {
					t.Fatalf("trial %d span %d rep %d (count=%d rows=%d planes=%d sites=%+v): %v",
						trial, span, rep, count, rows, planes, sites, err)
				}
				if !reflect.DeepEqual(*fastMisses, *refMisses) {
					t.Fatalf("trial %d span %d rep %d: DataRun reported misses %v, per-access Data %v",
						trial, span, rep, *fastMisses, *refMisses)
				}
			}
		}
	}
	if windowed == 0 {
		t.Fatal("no span carried a window")
	}
}
