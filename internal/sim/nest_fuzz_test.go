package sim_test

// The oracle of the executor's hoisted-loop path: one candidate, drawn from
// the generators of the repository benchmark's corpus or from a split-tail
// generator of this test's own, goes through lower.Execute and through the
// per-instruction reference, and the two must agree on every statistic, on
// the complete cache state and on the timing model's cycles and
// mispredicts. The checked-in seeds under testdata/fuzz/FuzzNest are named
// after the nest shape they reach; TestFuzzNestSeedShapes keeps those names
// true.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ansor"
	"repro/internal/autotvm"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// Generator kinds of a fuzz input, as the corpus mixes them.
const (
	kindDefault = iota
	kindPerm
	kindAutoTVM
	kindAnsor
	// kindSplitTail splits one leaf by a factor that does not divide it,
	// then reorders the leaves: the only kind whose schedules carry
	// split-tail guards, since the corpus generators split by divisors only.
	kindSplitTail
	numKinds
)

// fuzzCandidate maps a fuzz input to one schedule: workload wl of the five
// tiny conv groups and the 16^3 matmul, generator kind, both modulo their
// count, every random draw from seed.
func fuzzCandidate(t *testing.T, seed uint64, wl, kind uint) candidate {
	t.Helper()
	g := int(wl % (te.NumConvGroups + 1))
	c := candidate{name: fmt.Sprintf("conv_tiny_%d", g),
		factory: func() *te.Workload { return te.ConvGroup(te.ScaleTiny, g) }}
	if g == te.NumConvGroups {
		c.name, c.factory = "matmul_16", func() *te.Workload { return te.MatMul(16, 16, 16) }
	}
	rng := num.NewRNG(seed)
	switch kind % numKinds {
	case kindPerm:
		s := schedule.New(c.factory().Op)
		reorder(t, s, rng)
		c.steps = s.Steps
	case kindSplitTail:
		s := schedule.New(c.factory().Op)
		var long []*schedule.IterVar
		for _, iv := range s.Leaves {
			if iv.Extent >= 3 { // extent-1 >= 2 never divides it
				long = append(long, iv)
			}
		}
		iv := long[rng.Intn(len(long))]
		var factors []int
		for f := 2; f < iv.Extent; f++ {
			if iv.Extent%f != 0 {
				factors = append(factors, f)
			}
		}
		if _, _, err := s.Split(iv, factors[rng.Intn(len(factors))]); err != nil {
			t.Fatal(err)
		}
		reorder(t, s, rng)
		c.steps = s.Steps
	case kindAutoTVM:
		w := c.factory()
		tmpl, err := autotvm.TemplateFor(w)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := tmpl.Space(w)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tmpl.Apply(w, cs, cs.Sample(rng))
		if err != nil {
			t.Fatal(err)
		}
		c.steps = s.Steps
	case kindAnsor:
		sketches, err := ansor.RandomSketches(c.factory, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		c.steps = sketches[0].Steps
	}
	return c
}

// reorder permutes the leaves of s by a seeded permutation.
func reorder(t *testing.T, s *schedule.Schedule, rng *num.RNG) {
	t.Helper()
	order := make([]*schedule.IterVar, len(s.Leaves))
	for i, p := range num.NthPerm(1+rng.Intn(1<<20), len(s.Leaves)) {
		order[i] = s.Leaves[p]
	}
	if err := s.Reorder(order); err != nil {
		t.Fatal(err)
	}
}

// nestShapes is what a spy between the executor and the simulator saw of
// the nest path.
type nestShapes struct {
	*sim.Machine
	cold, pendingRun bool
	spans, boxes2D   int // LoopRuns of one row; of several rows in one plane
	shortestSpan     int // fewest iterations of a one-row LoopRun, 0 for none
	boxes3D          int // LoopRuns of several planes
	coldThen2D       bool
	spillBoxes       int            // boxes carrying the spill reload and writeback
	prologue2D       int            // boxes of one plane with row prologue sites
	prologue3D       int            // boxes of several planes with plane prologue sites
	prologueFetchRun int            // boxes with prologue sites whose fetches came as one run
	runs             map[[3]int]int // LoopRuns by Count, Rows and Planes
}

func (s *nestShapes) FetchResident(lines []uint64) bool {
	ok := s.Machine.FetchResident(lines)
	s.cold = s.cold || !ok
	return ok
}

func (s *nestShapes) ConsumeFetchRun(total uint64, lines, lastOrdinals []uint64) {
	s.pendingRun = true
	s.Machine.ConsumeFetchRun(total, lines, lastOrdinals)
}

func (s *nestShapes) ConsumeLoop(run *lower.LoopRun) {
	s.see(run)
	s.Machine.ConsumeLoop(run)
}

func (s *nestShapes) ConsumePrologueRun(run *lower.LoopRun) {
	s.see(run)
	s.Machine.ConsumePrologueRun(run)
}

func (s *nestShapes) see(run *lower.LoopRun) {
	fetchRun := s.pendingRun
	if s.runs == nil {
		s.runs = map[[3]int]int{}
	}
	s.runs[[3]int{run.Count, run.Rows, run.Planes}]++
	switch {
	case run.Planes > 1:
		s.boxes3D++
	case run.Rows > 1:
		s.boxes2D++
		// A multi-line 2D box shipped after some probe had failed: the row
		// the failed probe sent down the ordered path fetched the code.
		s.coldThen2D = s.coldThen2D || (s.cold && s.pendingRun)
	default:
		s.spans++
		if s.shortestSpan == 0 || run.Count < s.shortestSpan {
			s.shortestSpan = run.Count
		}
	}
	s.pendingRun = false
	if run.Rows == 1 && run.Planes == 1 {
		return
	}
	var spill, rows, planes bool
	for _, st := range run.Sites {
		spill = spill || st.Write // the body writes only spilled accumulators
		rows = rows || st.Level == 1
		planes = planes || st.Level == 2
	}
	if spill {
		s.spillBoxes++
	}
	if rows && run.Planes == 1 {
		s.prologue2D++
	}
	if (rows || planes) && fetchRun {
		s.prologueFetchRun++
	}
	if planes && run.Planes > 1 {
		s.prologue3D++
	}
}

// checkNest runs the candidate on arch, under the profile's cache geometry
// and under one with a 1 KiB 2-way L1I (code lines get evicted between
// boxes, so fetch probes fail mid-run too), and returns what the spy saw
// under the profile's.
func checkNest(t *testing.T, c candidate, arch isa.Arch) (*lower.Program, *nestShapes) {
	t.Helper()
	s, err := schedule.Replay(c.factory().Op, c.steps)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	prog, err := lower.Build(s, isa.Lookup(arch))
	if err != nil {
		t.Skipf("%s: %v", c.name, err) // a schedule the code generator rejects
	}
	tight := hw.Lookup(arch).Caches
	tight.L1I = cache.Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Assoc: 2}
	var seen *nestShapes
	for _, caches := range []cache.HierarchyConfig{hw.Lookup(arch).Caches, tight} {
		var ms [2]*sim.Machine
		for i := range ms {
			if ms[i], err = sim.New(arch, caches); err != nil {
				t.Fatal(err)
			}
		}
		spy := &nestShapes{Machine: ms[0]}
		lower.Execute(prog, spy, false)
		lower.ExecutePerInstruction(prog, ms[1], false)
		if err := ms[0].Hierarchy().DiffState(ms[1].Hierarchy()); err != nil {
			t.Fatalf("%s %s (L1I %d B): cache state differs from the per-instruction reference: %v",
				arch, c.name, caches.L1I.SizeBytes, err)
		}
		a, b := ms[0].Stats(), ms[1].Stats()
		a.SinkEvents, b.SinkEvents = 0, 0
		a.SimWallSeconds, b.SimWallSeconds = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s %s (L1I %d B): stats differ:\nexecute:   %+v\nreference: %+v",
				arch, c.name, caches.L1I.SizeBytes, a, b)
		}
		// The timing model sums miss latencies in floating point, so it
		// holds the executor to the reference's access order as well as
		// to its counts: cycles must be equal to the last bit.
		prof := hw.Lookup(arch)
		prof.Caches = caches
		var hs [2]*hw.Machine
		for i := range hs {
			if hs[i], err = hw.NewMachine(prof); err != nil {
				t.Fatal(err)
			}
		}
		lower.Execute(prog, hs[0], false)
		lower.ExecutePerInstruction(prog, hs[1], false)
		if hs[0].Cycles() != hs[1].Cycles() || hs[0].Mispredicts() != hs[1].Mispredicts() {
			t.Fatalf("%s %s (L1I %d B): hw cycles %v / mispredicts %d, reference %v / %d",
				arch, c.name, caches.L1I.SizeBytes, hs[0].Cycles(), hs[0].Mispredicts(), hs[1].Cycles(), hs[1].Mispredicts())
		}
		if seen == nil {
			seen = spy
		}
	}
	return prog, seen
}

// fuzzSeedDir holds FuzzNest's checked-in seed corpus.
var fuzzSeedDir = filepath.Join("testdata", "fuzz", "FuzzNest")

// fuzzSeed reads the FuzzNest seed file name: seed, workload, arch, kind.
func fuzzSeed(t *testing.T, name string) [4]uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(fuzzSeedDir, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(strings.TrimPrefix(string(raw), "go test fuzz v1"))
	if len(lines) != 4 {
		t.Fatalf("%s: %d values, want seed, workload, arch, kind", name, len(lines))
	}
	var in [4]uint64
	for i, l := range lines {
		// "uint64(7)" or "uint(7)"
		v := strings.TrimSuffix(l[strings.IndexByte(l, '(')+1:], ")")
		if in[i], err = strconv.ParseUint(v, 10, 64); err != nil {
			t.Fatalf("%s: %q: %v", name, l, err)
		}
	}
	return in
}

func FuzzNest(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, wl, arch, kind uint) {
		archs := isa.Archs()
		checkNest(t, fuzzCandidate(t, seed, wl, kind), archs[arch%uint(len(archs))])
	})
}

// nestFrom returns the first leaf of the hoisted nest: the top of
// nestRanks, len(s.Leaves) for no nest.
func nestFrom(s *schedule.Schedule) int {
	ranks := nestRanks(s)
	if len(ranks) == 0 {
		return len(s.Leaves)
	}
	return ranks[len(ranks)-1]
}

// nestRanks returns the leaves of the hoisted nest that take a rank, the
// row first: the innermost leaf, then up to two more inside the reduction
// of extent > 1 or the outermost reduce leaf, none under a vectorized
// innermost level. A rank is a level that can box, so the nest ends below
// the first of those leaves that is unrolled (AnnUnroll within lower's
// unroll budget of 64 trips), as Build ends it. (Build also ends it at a
// guarded level or one with a padded hoisted load, and keeps a rank for
// some one-trip levels; no seed the mirror is asked about has either.)
func nestRanks(s *schedule.Schedule) []int {
	nl := len(s.Leaves)
	reduce := slices.IndexFunc(s.Leaves, func(iv *schedule.IterVar) bool { return iv.Kind() == te.Reduce })
	if reduce < 0 || s.Leaves[nl-1].Ann == schedule.AnnVectorize {
		return nil
	}
	ranks := []int{nl - 1}
	for li := nl - 2; li >= reduce && len(ranks) < 3; li-- {
		if iv := s.Leaves[li]; iv.Extent > 1 || li == reduce {
			if iv.Ann == schedule.AnnUnroll && iv.Extent <= 64 {
				break
			}
			ranks = append(ranks, li)
		}
	}
	return ranks
}

// anyRun reports whether some LoopRun seen had a shape that holds.
func anyRun(n *nestShapes, holds func(count, rows, planes int) bool) bool {
	for k := range n.runs {
		if holds(k[0], k[1], k[2]) {
			return true
		}
	}
	return false
}

// splitTail returns the leaf positions of the two halves of a kindSplitTail
// split and whether their values overrun the axis, which makes the deeper
// of the two carry a split-tail guard; ok is false for a schedule that
// splits nothing.
func splitTail(s *schedule.Schedule) (outer, inner int, guarded, ok bool) {
	for i, a := range s.Leaves {
		for j, b := range s.Leaves {
			if a.Src == b.Src && a.Weight > b.Weight {
				span := (a.Extent-1)*a.Weight + (b.Extent-1)*b.Weight
				return i, j, span >= a.Src.Extent, true
			}
		}
	}
	return 0, 0, false, false
}

// diagonalRank reports the lowest box rank that a diagonal condition
// constrains, 0 when there is none. A diagonal condition is a padding check
// of the reduction body that varies with two loops of the hoisted nest (the
// innermost three levels, inside the reduction) at once, like
// oh*stride+kh-pad with both oh and kh in the nest: its pass region is no
// rectangle of rows, and a box reaching the higher of its two loops holds
// it at both ends of its range. (Split-tail guards, the other affine
// condition, come only from kindSplitTail.)
func diagonalRank(s *schedule.Schedule) int {
	ranks := nestRanks(s)
	rank := 0
	for _, acc := range te.Accesses(s.Op.ReduceBody) {
		for d, aff := range acc.Index {
			lo, hi, inNest, top := aff.Const, aff.Const, 0, 0
			for _, term := range aff.Terms {
				if span := term.Coef * (term.Axis.Extent - 1); span < 0 {
					lo += span
				} else {
					hi += span
				}
				for r, li := range ranks {
					if s.Leaves[li].Src == term.Axis {
						inNest++
						top = max(top, r)
					}
				}
			}
			if inNest >= 2 && (lo < 0 || hi >= acc.Tensor.Shape[d]) && (rank == 0 || top < rank) {
				rank = top
			}
		}
	}
	return rank
}

// TestFuzzNestSeedShapes reads the checked-in seed corpus and holds each
// seed to the nest shape its file name promises.
func TestFuzzNestSeedShapes(t *testing.T) {
	shapes := map[string]func(candidate, *lower.Program, *nestShapes) bool{
		"box3d":  func(_ candidate, _ *lower.Program, n *nestShapes) bool { return n.boxes3D > 0 },
		"cold2d": func(_ candidate, _ *lower.Program, n *nestShapes) bool { return n.coldThen2D },
		// Rows a diagonal condition cuts go span by span.
		"diagonal": func(_ candidate, p *lower.Program, n *nestShapes) bool {
			return diagonalRank(p.Sched) > 0 && n.spans > 0
		},
		// The interval rule boxes the rows where a diagonal condition holds
		// at both ends of its range.
		"diagbox": func(_ candidate, p *lower.Program, n *nestShapes) bool {
			r := diagonalRank(p.Sched)
			return r > 0 && (n.boxes3D > 0 || (r == 1 && n.boxes2D > 0))
		},
		"spillbox": func(_ candidate, p *lower.Program, n *nestShapes) bool {
			return p.SpillRegisters() > 0 && n.spillBoxes > 0
		},
		// A multi-line box: the fetch walk steps over the prologues.
		"prologue2d": func(_ candidate, _ *lower.Program, n *nestShapes) bool {
			return n.prologue2D > 0 && n.prologueFetchRun > 0
		},
		"prologue3d": func(_ candidate, _ *lower.Program, n *nestShapes) bool { return n.prologue3D > 0 },
		// A one-trip level folded between the top rank and the row: a box
		// spans the innermost three leaves of extent > 1 with the one-trip
		// leaf among them, a folded level's hoisted loads riding as plane
		// prologue sites.
		"fold3d": func(_ candidate, p *lower.Program, n *nestShapes) bool {
			leaves := p.Sched.Leaves
			var ext []int
			oneTrip := false
			for li := len(leaves) - 1; li >= 0 && len(ext) < 3; li-- {
				if e := leaves[li].Extent; e > 1 {
					ext = append(ext, e)
				} else if len(ext) > 0 {
					oneTrip = true
				}
			}
			return len(ext) == 3 && oneTrip && n.prologue3D > 0 &&
				anyRun(n, func(count, rows, planes int) bool { return count == ext[0] && rows == ext[1] && planes > 1 })
		},
		// An unrolled reduce leaf of several trips (Ansor's kw.i) right above
		// a plain leaf of several trips that sits above the row: the unrolled
		// leaf never boxes, yet the leaves below it still ship boxes of
		// several rows.
		"unrolledrank": func(_ candidate, p *lower.Program, n *nestShapes) bool {
			leaves := p.Sched.Leaves
			for u := 0; u+2 < len(leaves); u++ {
				ul, pl := leaves[u], leaves[u+1]
				if ul.Ann == schedule.AnnUnroll && ul.Kind() == te.Reduce && ul.Extent > 1 &&
					pl.Ann == schedule.AnnNone && pl.Extent > 1 {
					return anyRun(n, func(_, rows, _ int) bool { return rows > 1 })
				}
			}
			return false
		},
		// Interior rows of a padded conv aggregate; boundary rows, where the
		// padding check cuts the inner range, go span by span.
		"padded": func(c candidate, _ *lower.Program, n *nestShapes) bool {
			return strings.HasPrefix(c.name, "conv") && n.spans > 0 && n.boxes2D+n.boxes3D > 0
		},
		// The nest is interior at some visits — one LoopRun covers all of
		// it — and cut by padding at others: rows go span by span with no
		// guard or spill to cut them.
		"interior": func(c candidate, p *lower.Program, n *nestShapes) bool {
			s := p.Sched
			nl, from := len(s.Leaves), nestFrom(s)
			full := [3]int{1, 1, 1}
			for li := from; li < nl; li++ {
				full[nl-1-li] = s.Leaves[li].Extent
			}
			_, _, guarded, _ := splitTail(s)
			return strings.HasPrefix(c.name, "conv") && from < nl && !guarded && p.SpillRegisters() == 0 &&
				n.runs[full] > 0 && n.shortestSpan > 0 && n.shortestSpan < full[0]
		},
		// The innermost level carries the guard, which cuts its rows into
		// spans shorter than the row.
		"guardspan": func(_ candidate, p *lower.Program, n *nestShapes) bool {
			o, i, guarded, ok := splitTail(p.Sched)
			nl := len(p.Sched.Leaves)
			return ok && guarded && max(o, i) == nl-1 && nestFrom(p.Sched) < nl &&
				n.shortestSpan > 0 && n.shortestSpan < p.Sched.Leaves[nl-1].Extent
		},
		// The guard on the innermost level varies with the split's outer
		// half, above the nest: rows whose guard passes throughout box.
		"guardbox": func(_ candidate, p *lower.Program, n *nestShapes) bool {
			o, i, guarded, ok := splitTail(p.Sched)
			nl := len(p.Sched.Leaves)
			return ok && guarded && i == nl-1 && o < nestFrom(p.Sched) && n.boxes2D+n.boxes3D > 0
		},
		// Both halves are nest levels, so the guard varies with two of
		// them, and a box reaches the outer half: the interval rule holds
		// the guard at both ends of the inner range.
		"guard2lv": func(_ candidate, p *lower.Program, n *nestShapes) bool {
			o, i, guarded, ok := splitTail(p.Sched)
			nl := len(p.Sched.Leaves)
			return ok && guarded && i == nl-1 && o >= nestFrom(p.Sched) &&
				(n.boxes3D > 0 || (nl-1-o == 1 && n.boxes2D > 0))
		},
	}
	for name, holds := range shapes {
		in := fuzzSeed(t, name)
		c := fuzzCandidate(t, in[0], uint(in[1]), uint(in[3]))
		archs := isa.Archs()
		if prog, seen := checkNest(t, c, archs[in[2]%uint64(len(archs))]); !holds(c, prog, seen) {
			t.Errorf("%s (%s): the seed no longer reaches its shape: %+v", name, c.name, *seen)
		}
	}
}
