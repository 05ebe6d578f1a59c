package lower

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/te"
	"repro/internal/tensor"
)

// Execute runs the lowered program once, streaming the block-aggregated
// event encoding to sink: EvData events for loads/stores, EvFetch events for
// instruction-line crossings, and one ConsumeCounts call with the bulk
// per-class instruction counts (see the package comment for the protocol).
// When computeValues is set the program also performs the real float32
// arithmetic (allocating tensors as needed) so the result can be validated
// against te.ComputeOp.ReferenceEval; with it off, only addresses and
// instruction classes are produced, which is what the simulators need and is
// considerably faster.
func Execute(p *Program, sink Sink, computeValues bool) {
	execute(p, sink, computeValues, false)
}

// ExecutePerInstruction runs the lowered program once in the legacy
// per-instruction encoding: one EvInstr event per executed instruction and
// no ConsumeCounts call. It is the reference encoding the block-aggregated
// one is differentially tested against; production paths use Execute.
func ExecutePerInstruction(p *Program, sink Sink, computeValues bool) {
	execute(p, sink, computeValues, true)
}

// ctxPool recycles executor contexts with their scratch — the 24 KiB event
// buffer, the loop-value and inner-loop integer scratch, the LoopRun site
// list — so a candidate simulation allocates none of it.
var ctxPool = sync.Pool{New: func() any {
	return &execCtx{em: emitter{buf: make([]Event, 0, batchSize)}}
}}

func execute(p *Program, sink Sink, computeValues, perInstr bool) {
	c := ctxPool.Get().(*execCtx)
	// Everything but the scratch starts from zero; the scratch keeps its
	// capacity only.
	*c = execCtx{
		p:        p,
		em:       emitter{sink: sink, buf: c.em.buf[:0]},
		ints:     c.ints,
		loopRun:  LoopRun{Sites: c.loopRun.Sites[:0]},
		compute:  computeValues,
		perInstr: perInstr,
		lastLine: noLine,
		ib:       uint64(p.Model.InstBytes),
	}
	nl := len(p.levels)
	fast := !computeValues && !perInstr && nl > 0 && p.reduceStart < nl
	// One backing array for the loop values and, on the fast path, the
	// scratch of the strength-reduced inner loop: guard bases and intervals,
	// site bases and intervals, flattened dim bases, cuts.
	ns, nd, ncuts := 0, 0, 0
	if fast {
		ns = len(p.bodyLoads)
		nd = p.innerDimOff[ns]
		ncuts = 2 + 2*p.maxGuards + 2*ns + 2
	}
	need := nl + 3*p.maxGuards + 3*ns + nd + ncuts
	if cap(c.ints) < need {
		c.ints = make([]int, need)
	}
	back := c.ints[:need]
	clear(back)
	c.vals, back = back[:nl:nl], back[nl:]
	if fast {
		c.fetch = fetchRunChannel(sink)
		c.innerGuardBase, back = back[:p.maxGuards], back[p.maxGuards:]
		c.innerGuardLo, back = back[:p.maxGuards], back[p.maxGuards:]
		c.innerGuardHi, back = back[:p.maxGuards], back[p.maxGuards:]
		c.innerElemBase, back = back[:ns], back[ns:]
		c.innerSiteLo, back = back[:ns], back[ns:]
		c.innerSiteHi, back = back[:ns], back[ns:]
		c.innerDimBase, back = back[:nd], back[nd:]
		c.innerCuts = back[:0:ncuts]
	}
	if computeValues {
		p.Op.Out.Alloc()
		for _, in := range p.Op.Inputs {
			in.Alloc()
		}
		c.acc = make([]float32, p.tileCount)
		c.axisVals = make([]int, p.numAxes)
	}

	// Preheader: argument/address setup plus fully loop-invariant loads.
	c.pc = p.codeBase
	c.run(isa.ALU, 8)
	for _, site := range p.preheader {
		c.scalarLoad(site)
	}

	switch {
	case len(p.levels) == 0:
		// Degenerate rank-0 kernel: single body+store.
		c.scalarBody()
	case p.reduceStart == 0:
		c.initBlock(p.codeBase + p.preheaderSize)
		c.runLevel(0, p.codeBase+p.levels[0].BlockOff)
		c.storeLoop(p.codeBase + p.preheaderSize + p.initSize + c.blockSize(0))
	default:
		c.runLevel(0, p.codeBase+p.levels[0].BlockOff)
	}
	c.em.flush()
	if !perInstr {
		sink.ConsumeCounts(&c.counts)
	}
	// Back to the pool holding scratch only, not the program or the sink.
	c.p, c.em.sink, c.fetch, c.acc, c.axisVals = nil, nil, nil, nil, nil
	ctxPool.Put(c)
}

// noLine is the "no fetch line yet" sentinel; real line addresses are 64 B
// aligned, so it never collides.
const noLine = ^uint64(0)

// maxFetchRunLines is the most I-lines a nest box's code may span and still
// ship its fetches as one run (512 B of code: 128 four-byte instructions per
// inner iteration); longer bodies stay on the per-row path.
const maxFetchRunLines = 8

type execCtx struct {
	p  *Program
	em emitter
	// fetch is the sink's fetch-run channel, nil when it has none (then
	// only single-I-line nest boxes aggregate).
	fetch FetchRunSink
	// ints backs vals and the inner-loop scratch below.
	ints     []int
	vals     []int
	axisVals []int
	acc      []float32
	compute  bool
	perInstr bool
	counts   Counts
	lastLine uint64
	pc       uint64
	ib       uint64

	// Scratch of the strength-reduced inner loop: affine base values at
	// iteration 0 and the uniform-span machinery, re-used across inner-loop
	// invocations.
	innerGuardBase []int
	innerElemBase  []int
	innerDimBase   []int
	innerCuts      []int
	innerGuardLo   []int
	innerGuardHi   []int
	innerSiteLo    []int
	innerSiteHi    []int
	loopRun        LoopRun
	walk           fetchWalk
}

// fetchLine emits an EvFetch event when the current PC has crossed onto a
// new instruction line (aggregated encoding only).
func (c *execCtx) fetchLine() {
	if line := c.pc &^ 63; line != c.lastLine {
		c.em.emit(Event{Kind: EvFetch, PC: line})
		c.lastLine = line
	}
}

// inst emits one non-memory instruction at the current PC.
func (c *execCtx) inst(class isa.Class, flags uint8) {
	if c.perInstr {
		c.em.emit(Event{PC: c.pc, Class: class, Flags: flags})
		c.pc += c.ib
		return
	}
	c.counts.ByClass[class]++
	if flags != 0 {
		if flags&FlagLoopExit != 0 {
			c.counts.LoopExits++
		}
		if flags&FlagGuard != 0 {
			c.counts.GuardBranches++
		}
	}
	c.fetchLine()
	c.pc += c.ib
}

// run emits a uniform burst of n non-memory instructions of one class
// starting at the current PC — one bulk count update plus the fetch-line
// crossings of the PC span in O(lines) instead of O(n). Instruction strides
// are below the 64 B line size (InstBytes is 3–4), so stepping the line by
// 64 visits every crossed line.
func (c *execCtx) run(class isa.Class, n int) {
	if n <= 0 {
		return
	}
	if c.perInstr {
		for i := 0; i < n; i++ {
			c.inst(class, 0)
		}
		return
	}
	c.counts.ByClass[class] += uint64(n)
	c.fetchSpan(n)
	c.pc += uint64(n) * c.ib
}

// mem emits one memory instruction at the current PC.
func (c *execCtx) mem(class isa.Class, addr uint64, size uint16) {
	if c.perInstr {
		c.em.emit(Event{PC: c.pc, Class: class, Addr: addr, Size: size})
		c.pc += c.ib
		return
	}
	c.counts.ByClass[class]++
	c.fetchLine()
	c.em.emit(Event{Kind: EvData, PC: c.pc, Addr: addr, Size: size, Class: class})
	c.pc += c.ib
}

// instFast emits one unflagged non-memory instruction in the aggregated
// encoding (fast-path helper; branch-flag tallies are handled by the
// caller).
func (c *execCtx) instFast(class isa.Class) {
	c.counts.ByClass[class]++
	c.fetchLine()
	c.pc += c.ib
}

// runInnerScalarFast executes the innermost non-vector loop of a reduction
// body in statistics-only mode. Instead of re-evaluating guard, element and
// dimension affines at every point, it evaluates them once at iteration 0
// and advances the precomputed per-iteration strides (Program.inner*Step) —
// classic strength reduction. Loops whose iteration block stays on one
// I-line additionally run segment-wise: affine guard/padding/spill
// conditions partition the iteration space into uniform spans, and each
// span's data accesses ship as a single LoopRun. Both variants emit streams
// bit-identical to the generic path.
func (c *execCtx) runInnerScalarFast(d int, lv *level, blockBase uint64) {
	p := c.p
	c.vals[d] = 0
	gb := c.innerGuardBase[:len(lv.Guards)]
	for gi := range lv.Guards {
		gb[gi] = lv.Guards[gi].Value.eval(c.vals)
	}
	eb := c.innerElemBase
	db := c.innerDimBase
	di := 0
	for si, site := range p.bodyLoads {
		eb[si] = site.Elem.eval(c.vals)
		if site.CanOOB {
			for k := range site.Dims {
				db[di+k] = site.Dims[k].eval(c.vals)
			}
			di += len(site.Dims)
		}
	}
	tile := 0
	if len(p.tileLevels) > 0 {
		tile = c.tileIdx() // vals[d] is 0: the base of the tile index
	}
	if !lv.Unrolled && blockBase&^63 == (blockBase+lv.PerIterSize-1)&^63 {
		c.runInnerSegments(d, lv, blockBase, gb, eb, db, tile)
		return
	}
	c.runInnerIter(d, lv, blockBase, gb, eb, db, tile)
}

// runParentOfInner executes the parent of the innermost scalar loop,
// keeping the child's affine bases (guards, element offsets, padding dims,
// tile index) hoisted: they are evaluated once at the first parent
// iteration and advanced by the Program.parent*Step deltas afterwards, so
// the per-parent-iteration base evaluation of runInnerScalarFast vanishes.
func (c *execCtx) runParentOfInner(d int, lv *level, blockBase uint64) {
	p := c.p
	child := p.levels[d+1]
	c.vals[d] = 0
	// Bases at (parent 0, child 0): evaluate at the current child value and
	// subtract its contribution instead of clobbering vals[d+1] — the
	// generic path leaves the child's last value visible to the parent's
	// guard/hoisted evaluations, and bit-identity includes that.
	cv := c.vals[d+1]
	gb := c.innerGuardBase[:len(child.Guards)]
	for gi := range child.Guards {
		gb[gi] = child.Guards[gi].Value.eval(c.vals) - cv*p.innerGuardStep[gi]
	}
	eb := c.innerElemBase
	db := c.innerDimBase
	di := 0
	for si, site := range p.bodyLoads {
		eb[si] = site.Elem.eval(c.vals) - cv*p.innerElemStep[si]
		if site.CanOOB {
			steps := p.innerDimStep[si]
			for k := range site.Dims {
				db[di+k] = site.Dims[k].eval(c.vals) - cv*steps[k]
			}
			di += len(site.Dims)
		}
	}
	tile := 0
	if len(p.tileLevels) > 0 {
		tile = c.tileIdx() - cv*p.innerTileStep
	}
	c.runParentRows(d, lv, child, blockBase, gb, eb, db, tile)
}

// runParentRows is the row loop of runParentOfInner: it executes all
// parent iterations given child affine bases positioned at (parent 0,
// inner 0), advancing the bases by the parent strides as it goes (they end
// up advanced by Extent×parent-step). Factored out so the grandparent path
// can drive it per plane with bases it has hoisted one level further.
func (c *execCtx) runParentRows(d int, lv, child *level, blockBase uint64, gb, eb, db []int, tile int) {
	p := c.p
	nd := p.innerDimOff[len(p.bodyLoads)]
	// 2D aggregation: when the parent is plain (no guards/hoisted loads, not
	// unrolled, no spill traffic) and every affine condition depends on at
	// most one of the two levels, the pass region of the parent×inner nest
	// is a rectangle of rows with an identical inner pattern — those rows
	// ship as one two-dimensional LoopRun. A block spanning several I-lines
	// qualifies only when the sink takes fetch runs.
	j2lo, j2hi := 0, 0
	oneLine := blockBase&^63 == (blockBase+lv.PerIterSize-1)&^63
	if len(lv.Guards) == 0 && len(lv.Hoisted) == 0 && !lv.Unrolled &&
		!child.Unrolled && p.spillRegs == 0 && (oneLine || c.fetch != nil) {
		j2lo, j2hi = c.nest2DRows(lv, child, gb, db)
	}
	for i := 0; i < lv.Extent; i++ {
		if i == j2lo && j2hi > j2lo {
			rows := j2hi - j2lo
			switch c.runNestBlock(lv, child, blockBase, gb, eb, db, rows, 1, j2hi == lv.Extent, false, false, oneLine) {
			case nestDone:
				for gi := range gb {
					gb[gi] += rows * p.parentGuardStep[gi]
				}
				for si := range eb {
					eb[si] += rows * p.parentElemStep[si]
				}
				for j := 0; j < nd; j++ {
					db[j] += rows * p.parentDimStep[j]
				}
				tile += rows * p.parentTileStep
				c.vals[d] = j2hi - 1
				c.vals[d+1] = child.Extent - 1
				i = j2hi - 1
				continue
			case nestCold:
				j2lo = i + 1 // this row fetches the code in order; ask again at the next
			default:
				j2hi = j2lo // ineligible nest shape: stay on the per-row path
			}
		}
		c.vals[d] = i
		iterBase := blockBase
		if lv.Unrolled {
			iterBase += uint64(i) * lv.PerIterSize
		}
		c.pc = iterBase
		if c.passGuards(lv) {
			for _, site := range lv.Hoisted {
				c.scalarLoad(site)
			}
			childBase := iterBase + child.BlockOff
			if !child.Unrolled && childBase&^63 == (childBase+child.PerIterSize-1)&^63 {
				c.runInnerSegments(d+1, child, childBase, gb, eb, db, tile)
			} else {
				c.runInnerIter(d+1, child, childBase, gb, eb, db, tile)
			}
		}
		if !lv.Unrolled {
			c.instFast(isa.ALU)
			c.instFast(isa.Branch)
			if i == lv.Extent-1 {
				c.counts.LoopExits++
			}
		}
		// Advance the hoisted child bases to the next parent iteration
		// (also when guards failed: the affines advance regardless).
		for gi := range gb {
			gb[gi] += p.parentGuardStep[gi]
		}
		for si := range eb {
			eb[si] += p.parentElemStep[si]
		}
		for j := 0; j < nd; j++ {
			db[j] += p.parentDimStep[j]
		}
		tile += p.parentTileStep
	}
}

// nest2DRows returns the parent-iteration range over which the parent×inner
// nest is rectangle-uniform: every condition that varies with the parent
// level must not also vary with the inner level (no diagonal boundaries)
// and must pass throughout the returned rows. An empty range means no 2D
// aggregation.
func (c *execCtx) nest2DRows(lv, child *level, gb, db []int) (int, int) {
	p := c.p
	pExt := lv.Extent
	jLo, jHi := 0, pExt
	for gi := range gb {
		pd := p.parentGuardStep[gi]
		if pd == 0 {
			continue // row-constant; the block check handles it
		}
		if p.innerGuardStep[gi] != 0 {
			return 0, 0
		}
		lo, hi := linearBelow(gb[gi], pd, child.Guards[gi].Extent, pExt)
		if lo > jLo {
			jLo = lo
		}
		if hi < jHi {
			jHi = hi
		}
	}
	di := 0
	for si, site := range p.bodyLoads {
		if !site.CanOOB {
			continue
		}
		cds := p.innerDimStep[si]
		for k := range cds {
			pd := p.parentDimStep[di+k]
			if pd == 0 {
				continue
			}
			if cds[k] != 0 {
				return 0, 0
			}
			lo, hi := linearAtLeast(db[di+k], pd, 0, pExt)
			if lo > jLo {
				jLo = lo
			}
			if hi < jHi {
				jHi = hi
			}
			lo, hi = linearBelow(db[di+k], pd, site.Tensor.Shape[k], pExt)
			if lo > jLo {
				jLo = lo
			}
			if hi < jHi {
				jHi = hi
			}
		}
		di += len(cds)
	}
	return jLo, jHi
}

// runGrandParentOfInner executes the grandparent of the innermost scalar
// loop with the inner affine bases hoisted two levels: evaluated once at
// the first plane and advanced by the Program.grand*Step deltas per
// grandparent iteration, so the per-plane base evaluation of
// runParentOfInner vanishes too. When the whole grandparent×parent×inner
// nest box is uniform over a range of planes, those planes ship as one 3D
// LoopRun (the third loop level of the rectangle aggregation); other
// planes fall back to the 2D row machinery via runParentRows.
func (c *execCtx) runGrandParentOfInner(d int, lv *level, blockBase uint64) {
	p := c.p
	parent := p.levels[d+1]
	child := p.levels[d+2]
	c.vals[d] = 0
	// Bases at (grand 0, parent 0, inner 0): subtract the stale
	// contributions of both descendant levels — their last values stay
	// visible to guard/hoisted evaluations, as the generic path leaves them.
	pv, cv := c.vals[d+1], c.vals[d+2]
	gb := c.innerGuardBase[:len(child.Guards)]
	for gi := range child.Guards {
		gb[gi] = child.Guards[gi].Value.eval(c.vals) - pv*p.parentGuardStep[gi] - cv*p.innerGuardStep[gi]
	}
	eb := c.innerElemBase
	db := c.innerDimBase
	di := 0
	for si, site := range p.bodyLoads {
		eb[si] = site.Elem.eval(c.vals) - pv*p.parentElemStep[si] - cv*p.innerElemStep[si]
		if site.CanOOB {
			isteps := p.innerDimStep[si]
			for k := range site.Dims {
				db[di+k] = site.Dims[k].eval(c.vals) - pv*p.parentDimStep[di+k] - cv*isteps[k]
			}
			di += len(site.Dims)
		}
	}
	tile := 0
	if len(p.tileLevels) > 0 {
		tile = c.tileIdx() - pv*p.parentTileStep - cv*p.innerTileStep
	}
	nd := p.innerDimOff[len(p.bodyLoads)]
	pExt := parent.Extent
	// 3D aggregation: both enclosing levels must be plain and the whole
	// grandparent iteration block single-I-line, unless the sink takes
	// fetch runs; nest3DPlanes then bounds the plane range over which the
	// full parent×inner rectangle repeats.
	k3lo, k3hi := 0, 0
	oneLine := blockBase&^63 == (blockBase+lv.PerIterSize-1)&^63
	if len(lv.Guards) == 0 && len(lv.Hoisted) == 0 && !lv.Unrolled &&
		len(parent.Guards) == 0 && len(parent.Hoisted) == 0 && !parent.Unrolled &&
		!child.Unrolled && p.spillRegs == 0 && (oneLine || c.fetch != nil) {
		k3lo, k3hi = c.nest3DPlanes(lv, parent, child, gb, db)
	}
	for k := 0; k < lv.Extent; k++ {
		if k == k3lo && k3hi > k3lo {
			planes := k3hi - k3lo
			switch c.runNestBlock(parent, child, blockBase+parent.BlockOff, gb, eb, db,
				pExt, planes, true, true, k3hi == lv.Extent, oneLine) {
			case nestDone:
				for gi := range gb {
					gb[gi] += planes * p.grandGuardStep[gi]
				}
				for si := range eb {
					eb[si] += planes * p.grandElemStep[si]
				}
				for j := 0; j < nd; j++ {
					db[j] += planes * p.grandDimStep[j]
				}
				tile += planes * p.grandTileStep
				c.vals[d] = k3hi - 1
				c.vals[d+1] = pExt - 1
				c.vals[d+2] = child.Extent - 1
				k = k3hi - 1
				continue
			case nestCold:
				k3lo = k + 1 // this plane fetches the code in order; ask again at the next
			default:
				k3hi = k3lo // ineligible nest shape: stay on the per-plane path
			}
		}
		c.vals[d] = k
		iterBase := blockBase
		if lv.Unrolled {
			iterBase += uint64(k) * lv.PerIterSize
		}
		c.pc = iterBase
		if c.passGuards(lv) {
			for _, site := range lv.Hoisted {
				c.scalarLoad(site)
			}
			c.runParentRows(d+1, parent, child, iterBase+parent.BlockOff, gb, eb, db, tile)
			// runParentRows advanced the bases across all parent rows;
			// rewind to this plane's base before stepping to the next plane.
			for gi := range gb {
				gb[gi] -= pExt * p.parentGuardStep[gi]
			}
			for si := range eb {
				eb[si] -= pExt * p.parentElemStep[si]
			}
			for j := 0; j < nd; j++ {
				db[j] -= pExt * p.parentDimStep[j]
			}
		}
		if !lv.Unrolled {
			c.instFast(isa.ALU)
			c.instFast(isa.Branch)
			if k == lv.Extent-1 {
				c.counts.LoopExits++
			}
		}
		// Advance the hoisted bases to the next plane (also when guards
		// failed: the affines advance regardless).
		for gi := range gb {
			gb[gi] += p.grandGuardStep[gi]
		}
		for si := range eb {
			eb[si] += p.grandElemStep[si]
		}
		for j := 0; j < nd; j++ {
			db[j] += p.grandDimStep[j]
		}
		tile += p.grandTileStep
	}
}

// nest3DPlanes returns the grandparent-iteration range over which the
// whole grandparent×parent×inner nest box is uniform: every affine
// condition must vary with at most one of the three levels (no diagonal
// boundaries), plane-varying conditions must pass throughout the returned
// planes, and parent-varying conditions must pass for every row (a
// partial-row rectangle cannot be plane-aggregated). An empty range means
// no 3D aggregation.
func (c *execCtx) nest3DPlanes(lv, parent, child *level, gb, db []int) (int, int) {
	p := c.p
	gExt := lv.Extent
	pExt := parent.Extent
	kLo, kHi := 0, gExt
	for gi := range gb {
		gd := p.grandGuardStep[gi]
		pd := p.parentGuardStep[gi]
		switch {
		case gd != 0:
			if pd != 0 || p.innerGuardStep[gi] != 0 {
				return 0, 0
			}
			lo, hi := linearBelow(gb[gi], gd, child.Guards[gi].Extent, gExt)
			if lo > kLo {
				kLo = lo
			}
			if hi < kHi {
				kHi = hi
			}
		case pd != 0:
			if p.innerGuardStep[gi] != 0 {
				return 0, 0
			}
			if lo, hi := linearBelow(gb[gi], pd, child.Guards[gi].Extent, pExt); lo != 0 || hi != pExt {
				return 0, 0
			}
		default:
			// inner-varying or constant; the block check handles it
		}
	}
	di := 0
	for si, site := range p.bodyLoads {
		if !site.CanOOB {
			continue
		}
		isteps := p.innerDimStep[si]
		for k := range isteps {
			gd := p.grandDimStep[di+k]
			pd := p.parentDimStep[di+k]
			switch {
			case gd != 0:
				if pd != 0 || isteps[k] != 0 {
					return 0, 0
				}
				lo, hi := linearAtLeast(db[di+k], gd, 0, gExt)
				if lo > kLo {
					kLo = lo
				}
				if hi < kHi {
					kHi = hi
				}
				lo, hi = linearBelow(db[di+k], gd, site.Tensor.Shape[k], gExt)
				if lo > kLo {
					kLo = lo
				}
				if hi < kHi {
					kHi = hi
				}
			case pd != 0:
				if isteps[k] != 0 {
					return 0, 0
				}
				if lo, hi := linearAtLeast(db[di+k], pd, 0, pExt); lo != 0 || hi != pExt {
					return 0, 0
				}
				if lo, hi := linearBelow(db[di+k], pd, site.Tensor.Shape[k], pExt); lo != 0 || hi != pExt {
					return 0, 0
				}
			}
		}
		di += len(isteps)
	}
	return kLo, kHi
}

// runNestBlock executes planes×rows consecutive nest iterations whose
// whole (grandparent×)parent×inner box is uniform, as bulk counts plus one
// LoopRun. Bases must be positioned at the first block plane/row. With
// grand=false it is the 2D rectangle path (planes must be 1): rows
// consecutive parent iterations, parent overhead included, lastRows adding
// the parent's own loop exit. With grand=true it covers planes whole
// grandparent iterations (full parent extent per plane, so rows ==
// parent.Extent): the per-plane parent loop exit and grandparent overhead
// are counted here, and lastPlanes adds the grandparent's own loop exit.
//
// oneLine says the enclosing block lies on a single I-line, so one fetch
// covers the box. Otherwise the box's fetch-line crossings go out as one
// fetch run, which needs every code line of the box resident in the sink's
// L1I: pending events are flushed, the lines probed, and on a miss nothing
// is executed and nestCold returned — the caller runs one row (or plane) on
// the ordered path, which fetches the code where its misses belong in the
// stream, and tries again. nestIneligible means the box will never
// aggregate: the inner range is not a single uniform segment, or the code
// spans more than maxFetchRunLines (per-row/per-plane execution handles
// both).
func (c *execCtx) runNestBlock(lv, child *level, blockBase uint64, gb, eb, db []int, rows, planes int, lastRows, grand, lastPlanes, oneLine bool) nestOutcome {
	p := c.p
	cExt := child.Extent
	// Inner guards must pass across the whole inner range.
	for gi := range gb {
		lo, hi := linearBelow(gb[gi], p.innerGuardStep[gi], child.Guards[gi].Extent, cExt)
		if lo != 0 || hi != cExt {
			return nestIneligible
		}
	}
	// Each site must be wholly loaded or wholly padding-skipped.
	sites := c.loopRun.Sites[:0]
	var canOOB, loaded uint64
	di := 0
	for si, site := range p.bodyLoads {
		lo, hi := 0, cExt
		if site.CanOOB {
			canOOB++
			steps := p.innerDimStep[si]
			for k := range steps {
				klo, khi := linearAtLeast(db[di+k], steps[k], 0, cExt)
				if klo > lo {
					lo = klo
				}
				if khi < hi {
					hi = khi
				}
				klo, khi = linearBelow(db[di+k], steps[k], site.Tensor.Shape[k], cExt)
				if klo > lo {
					lo = klo
				}
				if khi < hi {
					hi = khi
				}
			}
			di += len(steps)
		}
		switch {
		case lo <= 0 && hi >= cExt:
			loaded++
			planeStep := int64(0)
			if grand {
				planeStep = int64(p.grandElemStep[si]) * tensor.ElemSize
			}
			sites = append(sites, LoopSite{
				Addr:      site.Tensor.AddrOf(eb[si]),
				Step:      int64(p.innerElemStep[si]) * tensor.ElemSize,
				RowStep:   int64(p.parentElemStep[si]) * tensor.ElemSize,
				PlaneStep: planeStep,
				Size:      tensor.ElemSize,
			})
		case lo >= hi:
			// padding: skipped across the whole box
		default:
			c.loopRun.Sites = sites
			return nestIneligible
		}
	}
	c.loopRun.Sites = sites
	ng := uint64(len(gb))
	flops := uint64(p.bodyFLOPs)
	// Per inner iteration: guard pairs, padding-check pairs, loads, the FMA
	// burst and the inner loop overhead; plus parent overhead per row and —
	// for 3D boxes — grandparent overhead per plane.
	aluCI := ng + canOOB + 1
	brCI := ng + canOOB + 1
	nInstrIter := 2*ng + 2*canOOB + loaded + flops + 2
	if oneLine {
		// One fetch covers the box: every PC lies on blockBase's line.
		c.pc = blockBase
		c.fetchLine()
	} else if out := c.fetchRunBox(blockBase+child.BlockOff, nInstrIter, cExt, rows, planes, grand); out != nestDone {
		return out
	}
	rowsU := uint64(rows)
	cExtU := uint64(cExt)
	planesU := uint64(planes)
	aluPlane := rowsU * (cExtU*aluCI + 1)
	brPlane := rowsU * (cExtU*brCI + 1)
	if grand {
		aluPlane++ // grandparent loop overhead, once per plane
		brPlane++
	}
	c.counts.ByClass[isa.ALU] += planesU * aluPlane
	c.counts.ByClass[isa.Branch] += planesU * brPlane
	c.counts.ByClass[isa.FMA] += planesU * rowsU * cExtU * flops
	c.counts.ByClass[isa.Load] += planesU * rowsU * cExtU * loaded
	c.counts.GuardBranches += planesU * rowsU * cExtU * (ng + canOOB)
	c.counts.LoopExits += planesU * rowsU // the inner loop exits once per row
	if grand {
		c.counts.LoopExits += planesU // the parent loop exits once per plane
		if lastPlanes {
			c.counts.LoopExits++ // the grandparent loop exits on its last plane
		}
	} else if lastRows {
		c.counts.LoopExits++ // the parent loop exits on its last row
	}
	if len(sites) > 0 {
		c.loopRun.Count = cExt
		c.loopRun.Rows = rows
		c.loopRun.Planes = planes
		if len(c.em.buf) > 0 {
			c.em.flush() // keep event/loop-run ordering
		}
		c.em.sink.ConsumeLoop(&c.loopRun)
	}
	// As after the last row: inner loop done, then the parent overhead pair
	// (and the grandparent pair when the block covers whole planes).
	c.pc = blockBase + child.BlockOff + (nInstrIter+2)*c.ib
	if grand {
		c.pc += 2 * c.ib
	}
	return nestDone
}

// nestOutcome is what runNestBlock did with a box.
type nestOutcome uint8

const (
	nestIneligible nestOutcome = iota // never aggregates; nothing executed
	nestCold                          // code not yet resident; nothing executed, retry later
	nestDone                          // executed
)

// fetchRunBox ships the fetch-line crossings of a uniform nest box whose
// code spans several I-lines as one fetch run. The box executes, planes
// times: rows times (cExt inner iterations of nIter instructions from
// childBase, then the parent's overhead pair right behind them), then — for
// grand boxes — the grandparent's pair behind that. Nothing is delivered
// unless every one of those code lines is resident in the sink.
func (c *execCtx) fetchRunBox(childBase, nIter uint64, cExt, rows, planes int, grand bool) nestOutcome {
	nCode := nIter + 2
	if grand {
		nCode += 2
	}
	first := childBase &^ 63
	n := int(((childBase+(nCode-1)*c.ib)&^63-first)>>6) + 1
	if n > maxFetchRunLines {
		return nestIneligible
	}
	w := &c.walk
	*w = fetchWalk{lastLine: c.lastLine, ib: c.ib,
		childBase: childBase, nIter: nIter, cExt: cExt, rows: rows, planes: planes, grand: grand}
	for i := 0; i < n; i++ {
		w.lines[i] = first + uint64(i)<<6
	}
	// Fetches still in the buffer decide residency: deliver them first.
	c.em.flush()
	if !c.fetch.FetchResident(w.lines[:n]) {
		return nestCold
	}
	w.repeat(planes, (*fetchWalk).plane)
	c.fetch.ConsumeFetchRun(w.total, w.lines[:n], w.last[:n])
	c.lastLine = w.lastLine
	return nestDone
}

// fetchWalk derives a nest box's fetch-line crossings without visiting every
// iteration. A crossing happens wherever the fetch line differs from the
// previous instruction's, so each period of a loop level (an inner
// iteration, a row, a plane) is a fixed sequence of crossings given the line
// it is entered on — and every period after the first is entered on the
// same line, the one the period before it ended on. The first, second and
// last period of each level are therefore walked line by line and the ones
// between, copies of the second, are added as a multiple of its crossing
// count. Per line, only the ordinal of its last crossing is kept: that is
// what the LRU stamps record of the order.
type fetchWalk struct {
	lastLine uint64 // fetch line of the previous instruction
	total    uint64 // crossings so far
	ib       uint64

	childBase, nIter   uint64
	cExt, rows, planes int
	grand              bool

	lines [maxFetchRunLines]uint64 // the box's code lines, consecutive from lines[0]
	last  [maxFetchRunLines]uint64 // 1-based ordinal of each line's last crossing
}

// span walks n sequential instructions starting at addr.
func (w *fetchWalk) span(addr, n uint64) {
	end := (addr + (n-1)*w.ib) &^ 63
	for line := addr &^ 63; line <= end; line += 64 {
		if line != w.lastLine {
			w.total++
			w.last[(line-w.lines[0])>>6] = w.total
			w.lastLine = line
		}
	}
}

// repeat walks n periods: the first, second and last explicitly, those
// between by count.
func (w *fetchWalk) repeat(n int, period func(*fetchWalk)) {
	period(w)
	if n >= 3 {
		before := w.total
		period(w)
		w.total += uint64(n-3) * (w.total - before)
	}
	if n >= 2 {
		period(w)
	}
}

func (w *fetchWalk) iter() { w.span(w.childBase, w.nIter) }

func (w *fetchWalk) row() {
	w.repeat(w.cExt, (*fetchWalk).iter)
	w.span(w.childBase+w.nIter*w.ib, 2) // the parent's overhead pair
}

func (w *fetchWalk) plane() {
	w.repeat(w.rows, (*fetchWalk).row)
	if w.grand {
		w.span(w.childBase+(w.nIter+2)*w.ib, 2) // the grandparent's pair
	}
}

// runInnerIter is the per-iteration strength-reduced inner loop (general
// case: unrolled bodies and blocks spanning several I-lines).
func (c *execCtx) runInnerIter(d int, lv *level, blockBase uint64, gb, eb, db []int, tile int) {
	p := c.p
	spill := p.spillRegs > 0
	flops := uint64(p.bodyFLOPs)
	var alu, branch, fma, loads, stores, guardBr, exits uint64
	for i := 0; i < lv.Extent; i++ {
		c.vals[d] = i
		iterBase := blockBase
		if lv.Unrolled {
			iterBase += uint64(i) * lv.PerIterSize
		}
		c.pc = iterBase
		// When the whole iteration block lies on one I-line (PerIterSize is
		// an upper bound on its emitted span), a single up-front check
		// replaces every per-instruction line-crossing test.
		sameLine := iterBase&^63 == (iterBase+lv.PerIterSize-1)&^63
		if sameLine {
			c.fetchLine() // pc is at iterBase
		}
		pass := true
		for gi := range gb {
			alu++
			branch++
			guardBr++
			if !sameLine {
				c.fetchLine()
				c.pc += c.ib
				c.fetchLine()
				c.pc += c.ib
			} else {
				c.pc += 2 * c.ib
			}
			if gb[gi]+i*p.innerGuardStep[gi] >= lv.Guards[gi].Extent {
				pass = false
				break
			}
		}
		if pass {
			di := 0
			for si, site := range p.bodyLoads {
				if site.CanOOB {
					alu++
					branch++
					guardBr++
					if !sameLine {
						c.fetchLine()
						c.pc += c.ib
						c.fetchLine()
						c.pc += c.ib
					} else {
						c.pc += 2 * c.ib
					}
					in := true
					steps := p.innerDimStep[si]
					for k := range steps {
						v := db[di+k] + i*steps[k]
						if v < 0 || v >= site.Tensor.Shape[k] {
							in = false
							break
						}
					}
					di += len(steps)
					if !in {
						continue
					}
				}
				loads++
				if !sameLine {
					c.fetchLine()
				}
				off := eb[si] + i*p.innerElemStep[si]
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: site.Tensor.AddrOf(off), Size: tensor.ElemSize, Class: isa.Load})
				c.pc += c.ib
			}
			ti := tile + i*p.innerTileStep
			spilled := spill && ti >= p.spillFrom
			if spilled {
				loads++
				if !sameLine {
					c.fetchLine()
				}
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: p.stackBase + uint64(ti)*tensor.ElemSize, Size: tensor.ElemSize, Class: isa.Load})
				c.pc += c.ib
			}
			fma += flops
			if !sameLine {
				c.fetchSpan(p.bodyFLOPs)
			}
			c.pc += flops * c.ib
			if spilled {
				stores++
				if !sameLine {
					c.fetchLine()
				}
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: p.stackBase + uint64(ti)*tensor.ElemSize, Size: tensor.ElemSize, Class: isa.Store})
				c.pc += c.ib
			}
		}
		if !lv.Unrolled {
			alu++
			branch++
			if !sameLine {
				c.fetchLine()
				c.pc += c.ib
				c.fetchLine()
				c.pc += c.ib
			} else {
				c.pc += 2 * c.ib
			}
			if i == lv.Extent-1 {
				exits++
			}
		}
	}
	c.counts.ByClass[isa.ALU] += alu
	c.counts.ByClass[isa.Branch] += branch
	c.counts.ByClass[isa.FMA] += fma
	c.counts.ByClass[isa.Load] += loads
	c.counts.ByClass[isa.Store] += stores
	c.counts.GuardBranches += guardBr
	c.counts.LoopExits += exits
}

// runInnerSegments executes a non-unrolled, single-I-line inner loop
// segment-wise. Every emission decision of an iteration — guard outcomes,
// padding checks, spill status — is an affine condition of the iteration
// index, so its truth set is an interval. Cutting [0,Extent) at every
// interval endpoint yields spans with a constant event pattern: counts are
// added arithmetically per span, and the span's interleaved data accesses
// ship as one LoopRun instead of per-iteration events.
func (c *execCtx) runInnerSegments(d int, lv *level, blockBase uint64, gb, eb, db []int, tile int) {
	p := c.p
	ext := lv.Extent
	// One fetch covers the whole loop: every PC lies on blockBase's line.
	c.pc = blockBase
	c.fetchLine()
	// Cut [0,ext) at every interior truth-change point of the affine
	// conditions. Full and empty truth sets add no cuts, so the common
	// uniform case runs as a single sort-free segment.
	cuts := append(c.innerCuts[:0], 0, ext)
	gLo := c.innerGuardLo
	gHi := c.innerGuardHi
	for gi := range gb {
		lo, hi := linearBelow(gb[gi], p.innerGuardStep[gi], lv.Guards[gi].Extent, ext)
		gLo[gi], gHi[gi] = lo, hi
		if lo > 0 && lo < ext {
			cuts = append(cuts, lo)
		}
		if hi > 0 && hi < ext && hi > lo {
			cuts = append(cuts, hi)
		}
	}
	sLo := c.innerSiteLo
	sHi := c.innerSiteHi
	di := 0
	for si, site := range p.bodyLoads {
		lo, hi := 0, ext
		if site.CanOOB {
			steps := p.innerDimStep[si]
			for k := range steps {
				klo, khi := linearAtLeast(db[di+k], steps[k], 0, ext)
				if klo > lo {
					lo = klo
				}
				if khi < hi {
					hi = khi
				}
				klo, khi = linearBelow(db[di+k], steps[k], site.Tensor.Shape[k], ext)
				if klo > lo {
					lo = klo
				}
				if khi < hi {
					hi = khi
				}
			}
			di += len(steps)
			if lo > 0 && lo < ext {
				cuts = append(cuts, lo)
			}
			if hi > 0 && hi < ext && hi > lo {
				cuts = append(cuts, hi)
			}
		}
		sLo[si], sHi[si] = lo, hi
	}
	spLo, spHi := 0, 0
	if p.spillRegs > 0 {
		spLo, spHi = linearAtLeast(tile, p.innerTileStep, p.spillFrom, ext)
		if spLo > 0 && spLo < ext {
			cuts = append(cuts, spLo)
		}
		if spHi > 0 && spHi < ext && spHi > spLo {
			cuts = append(cuts, spHi)
		}
	}
	if len(cuts) > 2 {
		// Insertion sort: the cut list is tiny and mostly sorted.
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
	}
	flops := uint64(p.bodyFLOPs)
	var alu, branch, fma, loads, stores, guardBr, exits uint64
	for ci := 0; ci+1 < len(cuts); ci++ {
		a, b := cuts[ci], cuts[ci+1]
		if a >= b || a < 0 || b > ext {
			continue
		}
		n := uint64(b - a)
		// Guard outcomes are constant across the span; a failing guard cuts
		// the iteration after its own ALU+branch pair.
		firstFail := -1
		for gi := range gb {
			if a < gLo[gi] || a >= gHi[gi] {
				firstFail = gi
				break
			}
		}
		if firstFail >= 0 {
			k := uint64(firstFail + 1)
			alu += n * k
			branch += n * k
			guardBr += n * k
			nInstr := 2 * k
			alu += n // loop overhead (never unrolled here)
			branch += n
			nInstr += 2
			c.pc = blockBase + nInstr*c.ib
			if b == ext {
				exits++
			}
			continue
		}
		ng := uint64(len(gb))
		alu += n * ng
		branch += n * ng
		guardBr += n * ng
		nInstr := 2 * ng
		sites := c.loopRun.Sites[:0]
		for si, site := range p.bodyLoads {
			if site.CanOOB {
				alu += n
				branch += n
				guardBr += n
				nInstr += 2
				if a < sLo[si] || a >= sHi[si] {
					continue // padding: the load is skipped across the span
				}
			}
			loads += n
			nInstr++
			sites = append(sites, LoopSite{
				Addr: site.Tensor.AddrOf(eb[si] + a*p.innerElemStep[si]),
				Step: int64(p.innerElemStep[si]) * tensor.ElemSize,
				Size: tensor.ElemSize,
			})
		}
		if p.spillRegs > 0 && a >= spLo && a < spHi {
			slot := p.stackBase + uint64(tile+a*p.innerTileStep)*tensor.ElemSize
			step := int64(p.innerTileStep) * tensor.ElemSize
			loads += n
			stores += n
			nInstr += 2
			// Stream order within an iteration: body loads, spill reload,
			// FMA burst (no data), spill writeback.
			sites = append(sites,
				LoopSite{Addr: slot, Step: step, Size: tensor.ElemSize},
				LoopSite{Addr: slot, Step: step, Size: tensor.ElemSize, Write: true})
		}
		fma += n * flops
		nInstr += flops
		alu += n // loop overhead
		branch += n
		nInstr += 2
		if b == ext {
			exits++
		}
		if len(sites) > 0 {
			c.loopRun.Count = b - a
			c.loopRun.Rows = 1
			c.loopRun.Planes = 1
			c.loopRun.Sites = sites
			if len(c.em.buf) > 0 {
				c.em.flush() // keep event/loop-run ordering
			}
			c.em.sink.ConsumeLoop(&c.loopRun)
		} else {
			c.loopRun.Sites = sites
		}
		c.pc = blockBase + nInstr*c.ib
	}
	c.vals[d] = ext - 1 // as the per-iteration loop leaves it
	c.counts.ByClass[isa.ALU] += alu
	c.counts.ByClass[isa.Branch] += branch
	c.counts.ByClass[isa.FMA] += fma
	c.counts.ByClass[isa.Load] += loads
	c.counts.ByClass[isa.Store] += stores
	c.counts.GuardBranches += guardBr
	c.counts.LoopExits += exits
}

// linearBelow returns the sub-interval of [0,n) where base+i*step < bound.
// Steps 0 and ±1 (the overwhelmingly common strides) avoid the division.
func linearBelow(base, step, bound, n int) (int, int) {
	switch {
	case step == 0:
		if base < bound {
			return 0, n
		}
		return 0, 0
	case step > 0:
		if base >= bound {
			return 0, 0
		}
		hi := bound - base
		if step != 1 {
			hi = (bound-1-base)/step + 1
		}
		if hi > n {
			hi = n
		}
		return 0, hi
	default:
		if base < bound {
			return 0, n
		}
		lo := base - bound + 1
		if step != -1 {
			lo = (base-bound)/(-step) + 1
		}
		if lo > n {
			lo = n
		}
		return lo, n
	}
}

// linearAtLeast returns the sub-interval of [0,n) where base+i*step >= bound.
func linearAtLeast(base, step, bound, n int) (int, int) {
	switch {
	case step == 0:
		if base >= bound {
			return 0, n
		}
		return 0, 0
	case step > 0:
		if base >= bound {
			return 0, n
		}
		lo := bound - base
		if step != 1 {
			lo = (bound - base + step - 1) / step
		}
		if lo > n {
			lo = n
		}
		return lo, n
	default:
		if base < bound {
			return 0, 0
		}
		hi := base - bound + 1
		if step != -1 {
			hi = (base-bound)/(-step) + 1
		}
		if hi > n {
			hi = n
		}
		return 0, hi
	}
}

// fetchSpan walks the fetch-line crossings of an n-instruction burst
// starting at the current PC (without advancing it or counting classes).
func (c *execCtx) fetchSpan(n int) {
	if n <= 0 {
		return
	}
	last := (c.pc + uint64(n-1)*c.ib) &^ 63
	line := c.pc &^ 63
	if line != c.lastLine {
		c.em.emit(Event{Kind: EvFetch, PC: line})
	}
	for line < last {
		line += 64
		c.em.emit(Event{Kind: EvFetch, PC: line})
	}
	c.lastLine = line
}

// blockSize returns the total code size of level d's block (all copies).
func (c *execCtx) blockSize(d int) uint64 {
	lv := c.p.levels[d]
	if lv.Unrolled {
		return lv.PerIterSize * uint64(lv.Extent)
	}
	return lv.PerIterSize
}

// runLevel executes all iterations of level d; blockBase is the code address
// of the level's block.
func (c *execCtx) runLevel(d int, blockBase uint64) {
	p := c.p
	lv := p.levels[d]
	if lv.Vector {
		c.runVectorLevel(d, blockBase)
		return
	}
	inner := d == len(p.levels)-1
	if !c.compute && !c.perInstr && p.reduceStart < len(p.levels) {
		// Hot paths: statistics-only execution of a reduction body. The
		// strength-reduced loops emit a bit-identical stream (checked by
		// TestBlockAggregationBitIdentical against the generic path below,
		// which the per-instruction encoding always takes).
		if inner {
			c.runInnerScalarFast(d, lv, blockBase)
			return
		}
		if d == len(p.levels)-2 && !p.levels[d+1].Vector && d+1 != p.reduceStart {
			// Parent of the inner loop: hoist the inner affine bases out of
			// this loop and advance them by the parent strides instead of
			// re-evaluating them per iteration.
			c.runParentOfInner(d, lv, blockBase)
			return
		}
		if d == len(p.levels)-3 && !p.levels[d+1].Vector && !p.levels[d+2].Vector &&
			d+1 != p.reduceStart && d+2 != p.reduceStart {
			// Grandparent of the inner loop: hoist the bases one level
			// further and aggregate uniform 3D nest boxes.
			c.runGrandParentOfInner(d, lv, blockBase)
			return
		}
	}
	for i := 0; i < lv.Extent; i++ {
		c.vals[d] = i
		iterBase := blockBase
		if lv.Unrolled {
			iterBase += uint64(i) * lv.PerIterSize
		}
		c.pc = iterBase
		if c.passGuards(lv) {
			for _, site := range lv.Hoisted {
				c.scalarLoad(site)
			}
			if inner {
				c.scalarBody()
			} else {
				childBase := iterBase + p.levels[d+1].BlockOff
				if d+1 == p.reduceStart {
					c.initBlock(childBase - p.initSize)
				}
				c.runLevel(d+1, childBase)
				if d+1 == p.reduceStart {
					c.storeLoop(childBase + c.blockSize(d+1))
				}
			}
		}
		if !lv.Unrolled {
			c.inst(isa.ALU, 0)
			fl := uint8(0)
			if i == lv.Extent-1 {
				fl = FlagLoopExit
			}
			c.inst(isa.Branch, fl)
		}
	}
}

// passGuards emits the guard checks of a level and reports whether the
// current iteration is inside the axis bounds.
func (c *execCtx) passGuards(lv *level) bool {
	for _, g := range lv.Guards {
		c.inst(isa.ALU, 0)
		c.inst(isa.Branch, FlagGuard)
		if g.Value.eval(c.vals) >= g.Extent {
			return false
		}
	}
	return true
}

// runVectorLevel executes the innermost SIMD loop in chunks of Lanes,
// falling back to scalar code for split tails and guard-cut chunks.
func (c *execCtx) runVectorLevel(d int, blockBase uint64) {
	p := c.p
	lv := p.levels[d]
	lanes := lv.Lanes
	for i := 0; i < lv.Extent; i += lanes {
		c.vals[d] = i
		c.pc = blockBase
		n := lanes
		if lv.Extent-i < n {
			n = lv.Extent - i
		}
		for _, g := range lv.Guards {
			c.inst(isa.ALU, 0)
			c.inst(isa.Branch, FlagGuard)
			v0 := g.Value.eval(c.vals)
			if v0 >= g.Extent {
				n = 0
				break
			}
			if step := g.Value.coefOf(d); step > 0 {
				if maxN := (g.Extent - v0 + step - 1) / step; maxN < n {
					n = maxN
				}
			}
		}
		switch {
		case n == lanes:
			c.vectorBody(d, lanes)
		case n > 0:
			for k := 0; k < n; k++ {
				c.vals[d] = i + k
				c.scalarBody()
			}
			c.vals[d] = i
		}
		c.inst(isa.ALU, 0)
		fl := uint8(0)
		if i+lanes >= lv.Extent {
			fl = FlagLoopExit
		}
		c.inst(isa.Branch, fl)
	}
}

// scalarLoad emits one scalar load of an access site (with a padding guard
// when the site can go out of bounds; out-of-bounds reads emit no load).
func (c *execCtx) scalarLoad(site *accessSite) {
	if site.CanOOB {
		c.inst(isa.ALU, 0)
		c.inst(isa.Branch, FlagGuard)
		if !c.siteInBounds(site) {
			return
		}
	}
	off := site.Elem.eval(c.vals)
	c.mem(isa.Load, site.Tensor.AddrOf(off), tensor.ElemSize)
}

// siteInBounds checks every tensor dimension of the site at the current
// loop values.
func (c *execCtx) siteInBounds(site *accessSite) bool {
	for d, la := range site.Dims {
		v := la.eval(c.vals)
		if v < 0 || v >= site.Tensor.Shape[d] {
			return false
		}
	}
	return true
}

// tileIdx computes the accumulator index of the current register-tile point.
func (c *execCtx) tileIdx() int {
	idx := 0
	for k, li := range c.p.tileLevels {
		idx += c.p.tileStrideList[k] * c.vals[li]
	}
	return idx
}

// syncAxisVals reconstructs compute-axis values from loop-level values
// (value-computation mode only).
func (c *execCtx) syncAxisVals() {
	for id := 0; id < c.p.numAxes; id++ {
		v := 0
		for _, t := range c.p.axisTerms[id] {
			v += t.Coef * c.vals[t.Level]
		}
		c.axisVals[id] = v
	}
}

// scalarBody executes one scalar point of the reduction body.
func (c *execCtx) scalarBody() {
	p := c.p
	for _, site := range p.bodyLoads {
		c.scalarLoad(site)
	}
	tileIdx := 0
	if len(p.tileLevels) > 0 {
		tileIdx = c.tileIdx()
	}
	regIdx := tileIdx
	if p.vecTile {
		regIdx = tileIdx / p.levels[len(p.levels)-1].Lanes
	}
	spilled := p.spillRegs > 0 && regIdx >= p.spillFrom
	slot := p.stackBase + uint64(tileIdx)*tensor.ElemSize
	if spilled {
		c.mem(isa.Load, slot, tensor.ElemSize)
	}
	c.run(isa.FMA, p.bodyFLOPs)
	if spilled {
		c.mem(isa.Store, slot, tensor.ElemSize)
	}
	noReduce := p.reduceStart == len(p.levels)
	if c.compute {
		c.syncAxisVals()
		if noReduce {
			c.acc[tileIdx] = p.Op.Init
		}
		c.acc[tileIdx] = p.Op.CombineValues(c.acc[tileIdx], te.EvalExpr(p.Op.ReduceBody, c.axisVals, 0))
	}
	if noReduce {
		c.storePoint(tileIdx)
	}
}

// vectorBody executes one full-width SIMD point of the reduction body.
func (c *execCtx) vectorBody(d, lanes int) {
	p := c.p
	vbytes := uint16(lanes * tensor.ElemSize)
	for _, site := range p.bodyLoads {
		coef := site.Elem.coefOf(d)
		switch {
		case site.CanOOB:
			if coef == 1 && c.vectorSpanInBounds(site, d, lanes) {
				c.inst(isa.ALU, 0)
				c.inst(isa.Branch, FlagGuard)
				off := site.Elem.eval(c.vals)
				c.mem(isa.VLoad, site.Tensor.AddrOf(off), vbytes)
			} else {
				base := c.vals[d]
				for k := 0; k < lanes; k++ {
					c.vals[d] = base + k
					c.scalarLoad(site)
				}
				c.vals[d] = base
				c.inst(isa.ALU, 0) // lane combine
			}
		case coef == 1:
			off := site.Elem.eval(c.vals)
			c.mem(isa.VLoad, site.Tensor.AddrOf(off), vbytes)
		default:
			// Gather: strided lanes load scalar and pack.
			base := c.vals[d]
			for k := 0; k < lanes; k++ {
				c.vals[d] = base + k
				off := site.Elem.eval(c.vals)
				c.mem(isa.Load, site.Tensor.AddrOf(off), tensor.ElemSize)
			}
			c.vals[d] = base
			c.inst(isa.ALU, 0)
		}
	}
	tileIdx := 0
	if len(p.tileLevels) > 0 {
		tileIdx = c.tileIdx()
	}
	regIdx := tileIdx
	if p.vecTile {
		regIdx = tileIdx / lanes
	}
	spilled := p.spillRegs > 0 && regIdx >= p.spillFrom
	slot := p.stackBase + uint64(tileIdx)*tensor.ElemSize
	if spilled {
		c.mem(isa.VLoad, slot, vbytes)
	}
	c.run(isa.VFMA, p.bodyFLOPs)
	if spilled {
		c.mem(isa.VStore, slot, vbytes)
	}
	noReduce := p.reduceStart == len(p.levels)
	if c.compute || noReduce {
		base := c.vals[d]
		for k := 0; k < lanes; k++ {
			c.vals[d] = base + k
			ti := tileIdx
			if len(p.tileLevels) > 0 {
				ti = c.tileIdx()
			}
			if c.compute {
				c.syncAxisVals()
				if noReduce {
					c.acc[ti] = p.Op.Init
				}
				c.acc[ti] = p.Op.CombineValues(c.acc[ti], te.EvalExpr(p.Op.ReduceBody, c.axisVals, 0))
			}
			if noReduce {
				c.storePoint(ti)
			}
		}
		c.vals[d] = base
	}
}

// vectorSpanInBounds checks the first and last lane of a unit-stride span.
func (c *execCtx) vectorSpanInBounds(site *accessSite, d, lanes int) bool {
	if !c.siteInBounds(site) {
		return false
	}
	c.vals[d] += lanes - 1
	ok := c.siteInBounds(site)
	c.vals[d] -= lanes - 1
	return ok
}

// initBlock zeroes the accumulator registers at the entry of the reduction.
func (c *execCtx) initBlock(basePC uint64) {
	c.pc = basePC
	c.run(isa.ALU, c.p.accRegs)
	if c.compute {
		for i := range c.acc {
			c.acc[i] = c.p.Op.Init
		}
	}
}

// storeLoop writes the register tile back to the output tensor, applying the
// epilogue and re-checking split-tail guards of tile axes.
func (c *execCtx) storeLoop(basePC uint64) {
	if len(c.p.tileLevels) == 0 {
		c.pc = basePC
		c.storePoint(0)
		return
	}
	c.storeLoopLevel(0, basePC)
}

func (c *execCtx) storeLoopLevel(k int, basePC uint64) {
	p := c.p
	li := p.tileLevels[k]
	lv := p.levels[li]
	for i := 0; i < lv.Extent; i++ {
		c.vals[li] = i
		c.pc = basePC
		if c.passGuards(lv) {
			if k == len(p.tileLevels)-1 {
				c.storePoint(c.tileIdx())
			} else {
				c.storeLoopLevel(k+1, basePC)
			}
		}
		c.inst(isa.ALU, 0)
		fl := uint8(0)
		if i == lv.Extent-1 {
			fl = FlagLoopExit
		}
		c.inst(isa.Branch, fl)
	}
}

// storePoint applies the epilogue to one accumulator and stores the result.
func (c *execCtx) storePoint(tileIdx int) {
	p := c.p
	for _, site := range p.epiLoads {
		c.scalarLoad(site)
	}
	regIdx := tileIdx
	if p.vecTile {
		regIdx = tileIdx / p.levels[len(p.levels)-1].Lanes
	}
	if p.spillRegs > 0 && regIdx >= p.spillFrom {
		c.mem(isa.Load, p.stackBase+uint64(tileIdx)*tensor.ElemSize, tensor.ElemSize)
	}
	c.run(isa.FMA, p.epiFLOPs)
	off := p.store.Elem.eval(c.vals)
	c.mem(isa.Store, p.store.Tensor.AddrOf(off), tensor.ElemSize)
	if c.compute {
		c.syncAxisVals()
		v := c.acc[tileIdx]
		if p.Op.Epilogue != nil {
			v = te.EvalExpr(p.Op.Epilogue, c.axisVals, v)
		}
		p.store.Tensor.Data[off] = v
	}
}
