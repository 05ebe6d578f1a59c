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
	c.nestFrom = nl
	// One backing array for the loop values and, when the hoisted-loop path
	// runs, its scratch: the bases twice and the level values of the
	// second copy, guard and site intervals, cuts.
	nb, nf, ng, ns, ncuts := 0, 0, 0, 0, 0
	if !computeValues && !perInstr && p.nestFrom < nl {
		c.nestFrom = p.nestFrom
		nb, nf, ng, ns = len(p.nestConst), p.nestFrom, len(p.nest[0].guard), len(p.nest[0].elem)
		ncuts = 2 + 2*ng + 2*ns + 2
	}
	need := nl + 2*nb + nf + 2*ng + 2*ns + ncuts
	if cap(c.ints) < need {
		c.ints = make([]int, need)
	}
	back := c.ints[:need]
	clear(back)
	c.vals, back = back[:nl:nl], back[nl:]
	if c.nestFrom < nl {
		c.fetch, _ = sink.(FetchRunSink)
		c.prologue, _ = sink.(PrologueRunSink)
		st := &p.nest[0]
		c.bases, back = back[:nb], back[nb:]
		c.nestBase, back = back[:nb], back[nb:]
		c.nestVals, back = back[:nf], back[nf:]
		copy(c.nestBase, p.nestConst)
		c.innerGuardBase = c.bases[:ng]
		c.innerElemBase = c.bases[ng : ng+ns]
		c.innerDimBase = c.bases[ng+ns : ng+ns+len(st.dim)]
		c.innerHoistBase = c.bases[nb-1-len(st.hoist) : nb-1]
		c.innerGuardLo, back = back[:ng], back[ng:]
		c.innerGuardHi, back = back[:ng], back[ng:]
		c.innerSiteLo, back = back[:ns], back[ns:]
		c.innerSiteHi, back = back[:ns], back[ns:]
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
	c.p, c.em.sink, c.fetch, c.prologue, c.acc, c.axisVals = nil, nil, nil, nil, nil, nil
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
	// only single-I-line nest boxes aggregate); prologue is its prologue
	// channel, nil when it has none (then only boxes without prologue sites
	// aggregate).
	fetch    FetchRunSink
	prologue PrologueRunSink
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

	// nestFrom is the outermost level the hoisted-loop path takes over
	// (Program.nestFrom); len(levels) when this execution computes values
	// or speaks the per-instruction encoding.
	nestFrom int
	// Scratch of the hoisted-loop path: the body's affine bases — guard
	// values, element offsets, checked padding dims, the hoisted loads'
	// element offsets and last the tile index, laid out as nestSteps.step —
	// at the current iteration of the enclosing nest levels and iteration 0
	// of the innermost, with views of their sections; the innermost row's
	// intervals (rowRanges) and the cut list of runInnerSegments.
	// nestBase holds the bases at iteration 0 of every nest level for the
	// values nestVals of the levels above the nest.
	bases          []int
	nestBase       []int
	nestVals       []int
	innerGuardBase []int
	innerElemBase  []int
	innerDimBase   []int
	innerHoistBase []int
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

// fetchPair walks the fetch-line crossings of one ALU+branch pair at the
// current PC and moves past it; the caller counts the pair.
func (c *execCtx) fetchPair() {
	c.fetchSpan(2)
	c.pc += 2 * c.ib
}

// runNest executes the nest's top level, Program.nestFrom, in
// statistics-only mode with the body's affines hoisted out of all its
// levels. The bases are set here at iteration 0 of every nest level — moved
// from the last call's by the levels above the nest that have moved since —
// and advanced by the Program.nest strides from then on: classic strength
// reduction, instead of re-evaluating the affines at every point. The
// stream stays bit-identical to the generic path.
func (c *execCtx) runNest(blockBase uint64) {
	p, b := c.p, c.nestBase
	for l, col := range p.nestCols {
		if n := c.vals[l] - c.nestVals[l]; n != 0 && col != nil {
			c.nestVals[l] = c.vals[l]
			for i, coef := range col {
				b[i] += n * coef
			}
		}
	}
	copy(c.bases, b)
	if p.nestTop == 0 {
		c.runInnerSegments(blockBase)
	} else {
		c.runNestRows(p.nestTop, blockBase, false)
	}
}

// innerTile is the tile index base, the last of the bases.
func (c *execCtx) innerTile() int { return c.bases[len(c.bases)-1] }

// advance moves the bases n iterations along one nest level.
func (c *execCtx) advance(st *nestSteps, n int) {
	b := c.bases[:len(st.step)]
	for i, step := range st.step {
		b[i] += n * step
	}
}

// runNestRows runs every iteration of nest rank r >= 1 with the bases
// positioned at its iteration 0, and leaves them advanced across the whole
// level. A rank is a level that can box — no guards, no unrolling, no
// padded hoisted load, and its folded levels have neither guards nor padded
// loads — so where a range of iterations makes a uniform box with the ranks
// below (every affine condition constant over it) the range ships as one
// LoopRun.
// nestUniformRange proposes each range, from iteration 0 on, as far as the
// conditions varying above the row decide, and rowRanges at its first row
// decides the rest and the spill status. Every other iteration is what the
// box template says of one: the rank's hoisted loads, read off the bases,
// the rank below, and the overhead pairs of the folded levels and its own.
// A box whose code spans more than maxFetchRunLines sends every iteration
// down, a cold one (shipBox) the first. cut says no row of the level is
// uniform, so no box is tried: it holds below a range rowRanges refused,
// whose rows are all cut by the same conditions, those varying with no
// level above.
func (c *execCtx) runNestRows(r int, blockBase uint64, cut bool) {
	p := c.p
	st, below := &p.nest[r], &p.nest[r-1]
	lv := st.lv
	// A box whose code spans several I-lines needs a sink that takes fetch
	// runs, and one with prologue sites a sink that takes those.
	oneLine := blockBase&^63 == (blockBase+lv.PerIterSize-1)&^63
	// next is the iteration at which to look for the next box, -1 for none.
	lo, hi, next := 0, 0, -1
	prologue := st.loadsFrom < len(p.nestLoads)
	if !cut && (oneLine || c.fetch != nil) && (!prologue || c.prologue != nil) {
		next = 0
	}
	// Iterations below cutTo have their rows cut.
	cutTo := 0
	for i := 0; i < lv.Extent; i++ {
		if i == next {
			lo, hi = c.nestUniformRange(r, lv.Extent-i)
			lo, hi = lo+i, hi+i
			next = -1
		}
		if i == lo && hi > lo {
			out := nestIneligible
			if spLo, spHi, uniform := c.rowRanges(true); uniform {
				out = c.shipBox(r, i, hi-lo, blockBase, oneLine, spLo < spHi)
			} else {
				cutTo = hi
			}
			switch out {
			case nestDone:
				if hi == lv.Extent {
					c.counts.LoopExits++ // this level's own exit, on its last iteration
				}
				c.advance(st, hi-lo)
				i, next = hi-1, hi
				continue
			case nestCold:
				lo = i + 1 // this iteration fetches the code in order; ask again at the next
				if lo == hi {
					next = hi
				}
			default:
				hi = lo // ineligible nest shape: stay on the per-iteration path
			}
		}
		// The loads hoisted to this rank and the levels folded into it, in
		// code order; the rank below's block follows them.
		c.pc = blockBase
		for k := st.loadsFrom; k < len(p.nestLoads) && p.nestLoads[k].level == r; k++ {
			c.mem(isa.Load, p.nestLoads[k].site.Tensor.AddrOf(c.innerHoistBase[k]), tensor.ElemSize)
		}
		if r == 1 {
			c.runInnerSegments(c.pc)
		} else {
			c.runNestRows(r-1, c.pc, cut || i < cutTo)
			c.advance(below, -below.lv.Extent) // back to this iteration's base
		}
		// The overhead pairs of the folded levels, each exiting, then its own.
		n := st.box.code.epi[r] / 2
		c.counts.ByClass[isa.ALU] += n
		c.counts.ByClass[isa.Branch] += n
		c.counts.LoopExits += n - 1
		if i == lv.Extent-1 {
			c.counts.LoopExits++
		}
		c.fetchSpan(2 * int(n))
		c.pc += 2 * n * c.ib
		c.advance(st, 1)
	}
}

// nestUniformRange returns the first range of the next n iterations of a
// nest rank r >= 1, with the bases at the first of them, over which
// the level and the ones below form a uniform box, as far as the conditions
// varying above the row decide (rowRanges checks the rest). One interval
// rule covers every condition: taken at its least and its greatest value
// over the full extents of the ranks below, it must pass throughout — or,
// for the spill test, come out the same either way. Ranges are relative to the current
// iteration; an empty one means no box lies ahead.
func (c *execCtx) nestUniformRange(r, n int) (int, int) {
	p, b := c.p, c.bases
	st, below := &p.nest[r], &p.nest[r-1]
	lo, hi := 0, n
	for gi, g := range p.nest[0].lv.Guards {
		if st.above[gi] {
			clo, chi := linearBelow(b[gi]+below.hi[gi], st.step[gi], g.Extent, n)
			lo, hi = max(lo, clo), min(hi, chi)
		}
	}
	for k, bound := range p.dimBound {
		if i := len(st.guard) + len(st.elem) + k; st.above[i] {
			clo, chi := linearBelow(b[i]+below.hi[i], st.step[i], bound, n)
			alo, ahi := linearAtLeast(b[i]+below.lo[i], st.step[i], 0, n)
			lo, hi = max(lo, clo, alo), min(hi, chi, ahi)
		}
	}
	none, all := n, n // spill: no accumulator spills over [0,none), all do over [all,n)
	if t := len(b) - 1; p.spillRegs > 0 && st.above[t] {
		// Tile strides are non-negative: "none spills" holds over a prefix
		// and "all spill" over a suffix.
		_, none = linearBelow(b[t]+below.hi[t], st.step[t], p.spillFrom, n)
		if alo, ahi := linearAtLeast(b[t]+below.lo[t], st.step[t], p.spillFrom, n); alo < ahi {
			all = alo
		}
	}
	if lo < none {
		return lo, min(hi, none)
	}
	return max(lo, all), hi
}

// shipBox executes a uniform box — n iterations of nest rank r, full
// extents of the ranks below — as bulk counts plus one LoopRun filled in
// from the rank's template, with the guards passing throughout and each
// body load and the spill status (spill) as at the box's first point. At
// r = 0 the box is a span of the row: the bases stay at the row's
// iteration 0 and the span starts first iterations in. Above it the bases
// are at the box's first iteration, and the enclosing levels, which have no
// guards, start their blocks with their hoisted loads and their folded
// levels', the LoopRun's prologue sites; the row iteration's code follows
// all of those, and each enclosing level's epilogue follows the rank below.
//
// oneLine says the enclosing block lies on a single I-line, so one fetch
// covers the box; at r = 0 runInnerSegments has made it. Otherwise the
// box's fetch-line crossings go out as one fetch run, which needs every
// code line of the box resident in the sink's L1I; on a miss nothing is
// executed and nestCold returned — the caller runs one iteration on the
// ordered path, which fetches the code where its misses belong in the
// stream, and tries again.
func (c *execCtx) shipBox(r, first, n int, blockBase uint64, oneLine, spill bool) nestOutcome {
	p := c.p
	in, bt := &p.nest[0], &p.nest[r].box
	at := 0 // the box's first point, in iterations of the row from the bases
	if r == 0 {
		at = first
	}
	sites, tpl := c.loopRun.Sites[:0], bt.sites
	// Prologue sites, highest level first: the hoisted loads of the box's
	// enclosing levels, at the box's first row and plane.
	prologue := r > 0 && p.nest[r].loadsFrom < len(p.nestLoads)
	if prologue {
		k0 := p.nest[r].loadsFrom
		for k, h := range p.nestLoads[k0:] {
			ls := tpl[k]
			ls.Addr = h.site.Tensor.AddrOf(c.innerHoistBase[k0+k])
			sites = append(sites, ls)
		}
		tpl = tpl[len(p.nestLoads)-k0:]
	}
	var loaded uint64
	for si, site := range p.bodyLoads {
		if at < c.innerSiteLo[si] || at >= c.innerSiteHi[si] {
			continue // padding: skipped across the whole box
		}
		loaded++
		ls := tpl[si]
		ls.Addr = site.Tensor.AddrOf(c.innerElemBase[si] + at*in.elem[si])
		sites = append(sites, ls)
	}
	var spills uint64
	if spill {
		spills = 1
		addr := p.stackBase + uint64(c.innerTile()+at*in.tile)*tensor.ElemSize
		sites = append(sites, tpl[len(p.bodyLoads)], tpl[len(p.bodyLoads)+1])
		sites[len(sites)-2].Addr, sites[len(sites)-1].Addr = addr, addr
	}
	c.loopRun.Sites = sites
	// Per row iteration: guard pairs, padding-check pairs, loads, spill
	// reload and writeback, the FMA burst and the loop overhead pair.
	nInstrIter := bt.nInstr + loaded + 2*spills
	dims := bt.dims
	dims[r] = n
	base := blockBase + bt.proTotal*c.ib // the row iteration's code
	switch {
	case r == 0:
		// runInnerSegments has fetched the row's line, which holds every PC.
	case oneLine:
		// One fetch covers the box: every PC lies on blockBase's line.
		c.pc = blockBase
		c.fetchLine()
	default:
		if out := c.fetchRunBox(blockBase, base, nInstrIter, r, &dims, &bt.code); out != nestDone {
			return out
		}
	}
	nU, flops := uint64(n), uint64(p.bodyFLOPs)
	c.counts.ByClass[isa.ALU] += nU * bt.pairs
	c.counts.ByClass[isa.Branch] += nU * bt.pairs
	c.counts.ByClass[isa.FMA] += nU * bt.iters * flops
	c.counts.ByClass[isa.Load] += nU * (bt.iters*(loaded+spills) + bt.proLoads)
	c.counts.ByClass[isa.Store] += nU * bt.iters * spills
	c.counts.GuardBranches += nU * bt.iters * bt.checks
	c.counts.LoopExits += nU * bt.exits
	if len(sites) > 0 {
		c.loopRun.Count, c.loopRun.Rows, c.loopRun.Planes = dims[0], dims[1], dims[2]
		if len(c.em.buf) > 0 {
			c.em.flush() // keep event/loop-run ordering
		}
		if prologue {
			c.prologue.ConsumePrologueRun(&c.loopRun)
		} else {
			c.em.sink.ConsumeLoop(&c.loopRun)
		}
	}
	// As after the last iteration: the row done, then the epilogue of each
	// enclosing level.
	c.pc = base + (nInstrIter+bt.epiTotal)*c.ib
	return nestDone
}

// boxSite is a LoopSite at addr that moves by steps elements along the
// innermost row, the rows and the planes of a box.
func boxSite(addr uint64, steps *[maxNestRank]int) LoopSite {
	return LoopSite{Addr: addr, Size: tensor.ElemSize, Step: int64(steps[0]) * tensor.ElemSize,
		RowStep: int64(steps[1]) * tensor.ElemSize, PlaneStep: int64(steps[2]) * tensor.ElemSize}
}

// rowRanges works out, at the live bases, the interval of the row
// [0,Extent) over which each condition of the body holds: every guard
// passes (innerGuardLo/Hi), every body load is inside its tensor
// (innerSiteLo/Hi; the whole row for loads without a padding check), and
// — returned, empty without spill registers — the accumulator spills.
// With whole set it checks that the row is uniform as it goes: it stops
// and reports false at the first condition that changes along the row, a
// guard failing anywhere on it or a load or the spill holding on part of
// it only, guards first.
func (c *execCtx) rowRanges(whole bool) (spLo, spHi int, ok bool) {
	p := c.p
	in := &p.nest[0]
	inner := in.lv
	ext := inner.Extent
	part := func(lo, hi int) bool { return whole && lo < hi && (lo > 0 || hi < ext) }
	for gi, base := range c.innerGuardBase {
		lo, hi := linearBelow(base, in.guard[gi], inner.Guards[gi].Extent, ext)
		if whole && (lo > 0 || hi < ext) {
			return 0, 0, false
		}
		c.innerGuardLo[gi], c.innerGuardHi[gi] = lo, hi
	}
	if p.spillRegs > 0 {
		if spLo, spHi = linearAtLeast(c.innerTile(), in.tile, p.spillFrom, ext); part(spLo, spHi) {
			return 0, 0, false
		}
	}
	k := 0
	for si, site := range p.bodyLoads {
		lo, hi := 0, ext
		if site.CanOOB {
			for range site.Checked {
				alo, ahi := linearAtLeast(c.innerDimBase[k], in.dim[k], 0, ext)
				blo, bhi := linearBelow(c.innerDimBase[k], in.dim[k], p.dimBound[k], ext)
				lo, hi = max(lo, alo, blo), min(hi, ahi, bhi)
				k++
			}
			if part(lo, hi) {
				return 0, 0, false
			}
		}
		c.innerSiteLo[si], c.innerSiteHi[si] = lo, hi
	}
	return spLo, spHi, true
}

// nestOutcome is what shipBox did with a box.
type nestOutcome uint8

const (
	nestIneligible nestOutcome = iota // never aggregates; nothing executed
	nestCold                          // code not yet resident; nothing executed, retry later
	nestDone                          // executed
)

// fetchRunBox ships the fetch-line crossings of a uniform nest box whose
// code spans several I-lines as one fetch run. The box's code starts at
// blockBase with the prologue of each of the r enclosing levels, outermost
// first, then the row iteration's nIter instructions from base and, right
// behind them, the epilogue of each enclosing level, innermost first (code
// holds their lengths in instructions, none above r); dims holds the
// iterations per level. Nothing is delivered unless every one of those code lines is
// resident in the sink. A box that repeats the previous walk's inputs,
// entered the same way, reuses its crossings.
func (c *execCtx) fetchRunBox(blockBase, base, nIter uint64, r int, dims *[maxNestRank]int, code *boxCode) nestOutcome {
	first := blockBase &^ 63 // code.epi is 0 above r
	n := int(((base+(nIter+code.epi[1]+code.epi[2]-1)*c.ib)&^63-first)>>6) + 1
	if n > maxFetchRunLines {
		return nestIneligible
	}
	w := &c.walk
	if in := (walkInputs{blockBase: blockBase, base: base, nIter: nIter, r: r, dims: *dims, code: *code,
		enteredOnFirst: c.lastLine == first}); w.in != in {
		w.walk(in, c.lastLine, c.ib)
	}
	// Fetches still in the buffer decide residency: deliver them first.
	c.em.flush()
	if !c.fetch.FetchResident(w.lines[:n]) {
		return nestCold
	}
	c.fetch.ConsumeFetchRun(w.total, w.lines[:n], w.last[:n])
	c.lastLine = w.lastLine
	return nestDone
}

// fetchWalk derives a nest box's fetch-line crossings without visiting every
// iteration. A crossing happens wherever the fetch line differs from the
// previous instruction's, so each period of a loop level (one of its
// iterations) is a fixed sequence of crossings given the line it is entered
// on — and every period after the first is entered on the same line, the
// one the period before it ended on. The first, second and last period of
// each level are therefore walked line by line and the ones between, copies
// of the second, are added as a multiple of its crossing count. Per line,
// only the ordinal of its last crossing is kept: that is what the LRU stamps
// record of the order.
type fetchWalk struct {
	// in is what the crossings were derived from; the zero value matches
	// no box.
	in       walkInputs
	lastLine uint64 // fetch line of the previous instruction
	total    uint64 // crossings so far
	ib       uint64
	proBase  [maxNestRank]uint64 // where each enclosing level's prologue starts
	epiBase  [maxNestRank]uint64 // where each enclosing level's epilogue starts

	lines [maxFetchRunLines]uint64 // the box's code lines, consecutive from lines[0]
	last  [maxFetchRunLines]uint64 // 1-based ordinal of each line's last crossing
}

// walkInputs is everything a box's crossings depend on. Every walk starts
// at blockBase, so the line fetched before the box matters only as to
// whether it is that one.
type walkInputs struct {
	blockBase, base, nIter uint64
	r                      int
	dims                   [maxNestRank]int // iterations per nest rank, the row first
	code                   boxCode
	enteredOnFirst         bool
}

// walk derives the crossings of the box in, entered from line entry.
func (w *fetchWalk) walk(in walkInputs, entry, ib uint64) {
	w.in, w.lastLine, w.total, w.ib, w.last = in, entry, 0, ib, [maxFetchRunLines]uint64{}
	for i := range w.lines {
		w.lines[i] = in.blockBase&^63 + uint64(i)<<6
	}
	for s, at := in.r, in.blockBase; s >= 1; s-- {
		w.proBase[s] = at
		at += in.code.pro[s] * ib
	}
	for s, at := 1, in.base+in.nIter*ib; s <= in.r; s++ {
		w.epiBase[s] = at
		at += in.code.epi[s] * ib
	}
	w.repeat(in.dims[in.r], in.r)
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

// repeat walks n periods of nest level s: the first, second and last
// explicitly, those between by count.
func (w *fetchWalk) repeat(n, s int) {
	w.period(s)
	if n >= 3 {
		before := w.total
		w.period(s)
		w.total += uint64(n-3) * (w.total - before)
	}
	if n >= 2 {
		w.period(s)
	}
}

// period walks one iteration of nest rank s: the row iteration for the
// row, above it the level's prologue, every iteration of the rank below
// and then the level's epilogue.
func (w *fetchWalk) period(s int) {
	if s == 0 {
		w.span(w.in.base, w.in.nIter)
		return
	}
	if w.in.code.pro[s] > 0 {
		w.span(w.proBase[s], w.in.code.pro[s])
	}
	w.repeat(w.in.dims[s-1], s-1)
	w.span(w.epiBase[s], w.in.code.epi[s])
}

// runInnerIter is the per-iteration strength-reduced row, for rows whose
// iteration block spans several I-lines.
func (c *execCtx) runInnerIter(blockBase uint64) {
	p := c.p
	in := &p.nest[0]
	lv := in.lv
	gb, eb, db, tile := c.innerGuardBase, c.innerElemBase, c.innerDimBase, c.innerTile()
	spill := p.spillRegs > 0
	flops := uint64(p.bodyFLOPs)
	var pairs, fma, loads, stores, guardBr uint64
	for i := 0; i < lv.Extent; i++ {
		c.pc = blockBase
		pass := true
		for gi := range gb {
			pairs++
			guardBr++
			c.fetchPair()
			if gb[gi]+i*in.guard[gi] >= lv.Guards[gi].Extent {
				pass = false
				break
			}
		}
		if pass {
			k := 0
			for si, site := range p.bodyLoads {
				if site.CanOOB {
					pairs++
					guardBr++
					c.fetchPair()
					inside := true
					for range site.Checked {
						if v := db[k] + i*in.dim[k]; v < 0 || v >= p.dimBound[k] {
							inside = false
						}
						k++
					}
					if !inside {
						continue
					}
				}
				loads++
				c.fetchLine()
				off := eb[si] + i*in.elem[si]
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: site.Tensor.AddrOf(off), Size: tensor.ElemSize, Class: isa.Load})
				c.pc += c.ib
			}
			ti := tile + i*in.tile
			spilled := spill && ti >= p.spillFrom
			if spilled {
				loads++
				c.fetchLine()
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: p.stackBase + uint64(ti)*tensor.ElemSize, Size: tensor.ElemSize, Class: isa.Load})
				c.pc += c.ib
			}
			fma += flops
			c.fetchSpan(p.bodyFLOPs)
			c.pc += flops * c.ib
			if spilled {
				stores++
				c.fetchLine()
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: p.stackBase + uint64(ti)*tensor.ElemSize, Size: tensor.ElemSize, Class: isa.Store})
				c.pc += c.ib
			}
		}
		pairs++ // the loop overhead
		c.fetchPair()
	}
	c.counts.ByClass[isa.ALU] += pairs
	c.counts.ByClass[isa.Branch] += pairs
	c.counts.ByClass[isa.FMA] += fma
	c.counts.ByClass[isa.Load] += loads
	c.counts.ByClass[isa.Store] += stores
	c.counts.GuardBranches += guardBr
	c.counts.LoopExits++
}

// runInnerSegments executes the row of the hoisted nest segment-wise; a
// block spanning several I-lines goes to runInnerIter instead. Every
// emission decision of an iteration — guard outcomes, padding checks,
// spill status — is an affine condition of the iteration index, so its
// truth set is an interval (rowRanges). Cutting [0,Extent) at every
// interval endpoint yields spans with a constant event pattern — one span,
// the whole row, when no condition changes along it: a span whose guards
// pass is a box of rank 0 (shipBox), one that fails a guard costs the guard
// checks up to it and the loop overhead. The bases are read, not moved.
func (c *execCtx) runInnerSegments(blockBase uint64) {
	lv := c.p.nest[0].lv
	if blockBase&^63 != (blockBase+lv.PerIterSize-1)&^63 {
		c.runInnerIter(blockBase)
		return
	}
	ext := lv.Extent
	// One fetch covers the whole loop: every PC lies on blockBase's line.
	c.pc = blockBase
	c.fetchLine()
	// Cut [0,ext) at every interior truth-change point of the affine
	// conditions. Full and empty truth sets add no cuts, so a uniform row
	// runs as a single sort-free segment.
	spLo, spHi, _ := c.rowRanges(false)
	cuts := append(c.innerCuts[:0], 0, ext)
	for gi, lo := range c.innerGuardLo {
		cuts = addCuts(cuts, lo, c.innerGuardHi[gi], ext)
	}
	for si, lo := range c.innerSiteLo {
		cuts = addCuts(cuts, lo, c.innerSiteHi[si], ext)
	}
	cuts = addCuts(cuts, spLo, spHi, ext)
	if len(cuts) > 2 {
		// Insertion sort: the cut list is tiny and mostly sorted.
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
	}
	for ci := 0; ci+1 < len(cuts); ci++ {
		a, b := cuts[ci], cuts[ci+1]
		if a == b {
			continue
		}
		// Guard outcomes are constant across the span; a failing guard cuts
		// the iteration after its own ALU+branch pair.
		k := 0
		for gi, lo := range c.innerGuardLo {
			if a < lo || a >= c.innerGuardHi[gi] {
				k = gi + 1
				break
			}
		}
		if k == 0 {
			c.shipBox(0, a, b-a, blockBase, true, a >= spLo && a < spHi)
		} else {
			pairs := uint64(b-a) * uint64(k+1) // the guards up to the failing one, and the loop overhead
			c.counts.ByClass[isa.ALU] += pairs
			c.counts.ByClass[isa.Branch] += pairs
			c.counts.GuardBranches += uint64(b-a) * uint64(k)
			c.pc = blockBase + 2*uint64(k+1)*c.ib
		}
		if b == ext {
			c.counts.LoopExits++
		}
	}
}

// addCuts appends to cuts each end of the interval [lo,hi) that lies
// inside (0,ext); an empty interval adds none.
func addCuts(cuts []int, lo, hi, ext int) []int {
	if lo >= hi {
		return cuts
	}
	if lo > 0 {
		cuts = append(cuts, lo)
	}
	if hi < ext {
		cuts = append(cuts, hi)
	}
	return cuts
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

// linearAtLeast returns the sub-interval of [0,n) where base+i*step >=
// bound: the complement of linearBelow's.
func linearAtLeast(base, step, bound, n int) (int, int) {
	lo, hi := linearBelow(base, step, bound, n)
	if lo > 0 {
		return 0, lo
	}
	return hi, n
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
	if d == c.nestFrom {
		// Hot path: statistics-only execution of the innermost levels of a
		// reduction body. The hoisted loops emit a bit-identical stream
		// (checked by TestBlockAggregationBitIdentical against the generic
		// path below, which the per-instruction encoding always takes).
		c.runNest(blockBase)
		return
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

// siteInBounds checks the site's checked dimensions at the current loop
// values.
func (c *execCtx) siteInBounds(site *accessSite) bool {
	for _, d := range site.Checked {
		if v := site.Dims[d].eval(c.vals); v < 0 || v >= site.Tensor.Shape[d] {
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
