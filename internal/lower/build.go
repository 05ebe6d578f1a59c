package lower

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/isa"
	"repro/internal/schedule"
	"repro/internal/te"
	"repro/internal/tensor"
)

// maxUnroll caps full unrolling, like a real compiler's unroll budget: loops
// longer than this fall back to normal loops.
const maxUnroll = 64

// operandRegCap bounds how many distinct operand registers the unroll
// estimate charges (compilers re-use operand registers beyond this).
const operandRegCap = 8

// Build lowers a validated schedule to an executable Program for the ISA.
// It returns an error for schedules the code generator cannot realize
// (e.g. vectorized reduction loops), which tuners treat as failed builds.
func Build(s *schedule.Schedule, model isa.Model) (*Program, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("lower: invalid schedule: %w", err)
	}
	op := s.Op
	p := &Program{Model: model, Op: op, Sched: s}

	// --- Levels from schedule leaves. ---
	last := len(s.Leaves) - 1
	for i, iv := range s.Leaves {
		lv := &level{IV: iv, Extent: iv.Extent, Reduce: iv.Kind() == te.Reduce, Lanes: 1}
		switch iv.Ann {
		case schedule.AnnUnroll:
			if iv.Extent <= maxUnroll {
				lv.Unrolled = true
			}
		case schedule.AnnVectorize:
			if iv.Kind() == te.Reduce {
				return nil, fmt.Errorf("lower: vectorized reduction loop %s is not supported", iv.Name)
			}
			if i != last {
				return nil, fmt.Errorf("lower: vectorized loop %s is not innermost", iv.Name)
			}
			if model.Lanes > 1 {
				lv.Vector = true
				lv.Lanes = model.Lanes
			} // lanes==1 (RISC-V U74): degrade to a plain loop
		}
		p.levels = append(p.levels, lv)
	}

	// --- Reduce subtree and register tile. ---
	p.reduceStart = len(p.levels)
	for i, lv := range p.levels {
		if lv.Reduce {
			p.reduceStart = i
			break
		}
	}
	p.tileCount = 1
	for i := len(p.levels) - 1; i > p.reduceStart; i-- {
		if !p.levels[i].Reduce {
			p.tileLevels = append([]int{i}, p.tileLevels...)
			p.tileStrideList = append([]int{p.tileCount}, p.tileStrideList...)
			p.tileCount *= p.levels[i].Extent
		}
	}

	// --- Axis reconstruction affines and split-tail guards. ---
	p.numAxes = len(op.AllAxes())
	p.axisTerms = make([][]coefTerm, p.numAxes)
	deepest := make([]int, p.numAxes)
	maxVal := make([]int, p.numAxes)
	for i := range deepest {
		deepest[i] = -1
	}
	for li, lv := range p.levels {
		ax := lv.IV.Src
		p.axisTerms[ax.ID] = append(p.axisTerms[ax.ID], coefTerm{Level: li, Coef: lv.IV.Weight})
		if li > deepest[ax.ID] {
			deepest[ax.ID] = li
		}
		maxVal[ax.ID] += (lv.Extent - 1) * lv.IV.Weight
	}
	for _, ax := range op.AllAxes() {
		if maxVal[ax.ID] >= ax.Extent {
			g := axisGuard{Axis: ax, Extent: ax.Extent,
				Value: levelAffine{Terms: p.axisTerms[ax.ID]}}
			d := deepest[ax.ID]
			p.levels[d].Guards = append(p.levels[d].Guards, g)
		}
	}

	// --- Access sites. ---
	for _, acc := range te.Accesses(op.ReduceBody) {
		site := p.resolveAccess(acc)
		switch {
		case site.HoistLevel == len(p.levels)-1:
			p.bodyLoads = append(p.bodyLoads, site)
		case site.HoistLevel < 0:
			p.preheader = append(p.preheader, site)
		default:
			p.levels[site.HoistLevel].Hoisted = append(p.levels[site.HoistLevel].Hoisted, site)
		}
	}
	p.bodyFLOPs = te.CountFLOPs(op.ReduceBody)
	if p.bodyFLOPs == 0 {
		p.bodyFLOPs = 1 // pure copy still costs the accumulate slot
	}
	if op.Epilogue != nil {
		for _, acc := range te.Accesses(op.Epilogue) {
			p.epiLoads = append(p.epiLoads, p.resolveAccess(acc))
		}
		p.epiFLOPs = te.CountFLOPs(op.Epilogue)
	}

	// --- Store site. ---
	p.store = storeSite{
		Tensor: op.Out,
		Dims:   p.resolveDims(op.OutIndex),
	}
	p.store.Elem = flattenDims(p.store.Dims, op.Out.Stride)

	// --- Register allocation and spill model. ---
	innermost := p.levels[len(p.levels)-1]
	vecTile := innermost.Vector && len(p.tileLevels) > 0 &&
		p.tileLevels[len(p.tileLevels)-1] == len(p.levels)-1
	p.accRegs = p.tileCount
	if vecTile {
		p.accRegs = (p.tileCount + innermost.Lanes - 1) / innermost.Lanes
	}
	if p.accRegs == 0 {
		p.accRegs = 1
	}
	unrollCopies := 1
	for _, lv := range p.levels {
		if lv.Unrolled {
			unrollCopies *= lv.Extent
		}
	}
	if unrollCopies > operandRegCap {
		unrollCopies = operandRegCap
	}
	operandRegs := len(p.bodyLoads) * unrollCopies
	demand := p.accRegs + operandRegs + 4
	if demand > model.FPRegs {
		p.spillRegs = demand - model.FPRegs
		if p.spillRegs > p.accRegs {
			p.spillRegs = p.accRegs
		}
	}
	p.spillFrom = p.accRegs - p.spillRegs
	p.vecTile = vecTile

	// --- Memory layout: tensors, spill stack, code. ---
	as := op.PlaceTensors()
	stackBytes := uint64(p.tileCount) * tensor.ElemSize
	if stackBytes < 64 {
		stackBytes = 64
	}
	p.stackBase = as.Reserve(stackBytes)
	p.layoutCode()
	p.codeBase = as.Reserve(p.codeSize)
	p.buildNest()
	return p, nil
}

// buildNest fills Program.nest for the levels the hoisted-loop path takes:
// the innermost one and the next maxNestRank-1 levels inside the reduction
// that are not plain loops of one trip, none of which may be the outermost
// reduce level except the top one (the init and store blocks sit around
// that level's loop). A plain one-trip level (no guards or padded hoisted
// load, not the outermost reduce level) between them folds into the ranked
// level around it, its code and counts riding along with that level's. An
// innermost one stays the row: folded into its parent it would only
// lengthen the row's code, which then spans two I-lines more often, and
// such rows run per iteration. A vector or unrolled innermost loop stays
// on the generic path: no generator emits the unrolled one, its stream is
// the same bit for bit there, and the differential tests hold it.
func (p *Program) buildNest() {
	nl := len(p.levels)
	p.nestFrom = nl
	inner := p.levels[nl-1]
	if inner.Vector || inner.Unrolled || p.reduceStart == nl {
		return
	}
	padded := func(lv *level) bool {
		return slices.ContainsFunc(lv.Hoisted, func(s *accessSite) bool { return s.CanOOB })
	}
	folds := func(d int) bool {
		return p.levels[d].Extent == 1 && d != p.reduceStart && len(p.levels[d].Guards) == 0 && !padded(p.levels[d])
	}
	// A folded level's hoisted loads travel as prologue sites only in boxes
	// of the level it folds into (padded hoisted loads stay on the per-row
	// path): under one that cannot box, it keeps a rank.
	boxes := func(lv *level) bool { return len(lv.Guards) == 0 && !lv.Unrolled && !padded(lv) }
	ranks := []int{nl - 1}
	for d := nl - 2; d >= p.reduceStart && len(ranks) < maxNestRank; d-- {
		x := d
		for folds(x) {
			x--
		}
		if x == d || len(p.levels[d].Hoisted) > 0 && !boxes(p.levels[x]) {
			ranks = append(ranks, d)
		}
	}
	p.nestTop, p.nestFrom = len(ranks)-1, ranks[len(ranks)-1]
	p.nest[0].lv, p.nest[0].d = inner, nl-1
	for r := 1; r < len(ranks); r++ {
		st, d, below := &p.nest[r], ranks[r], ranks[r-1]
		st.lv, st.d, st.fold = p.levels[d], d, p.levels[d+1:below]
		for _, lv := range p.levels[d+1 : below+1] {
			st.childOff += lv.BlockOff
		}
		for _, f := range st.fold {
			if !f.Unrolled {
				st.foldPairs++
			}
		}
	}
	for r := p.nestTop; r >= 1; r-- {
		for _, lv := range p.levels[ranks[r]:ranks[r-1]] {
			for _, site := range lv.Hoisted {
				p.nestLoads = append(p.nestLoads, nestLoad{site: site, level: r})
			}
		}
	}
	// The bases as affines of the loop levels, laid out as nestSteps.step.
	var bases []levelAffine
	for _, g := range inner.Guards {
		bases = append(bases, g.Value)
	}
	for _, site := range p.bodyLoads {
		bases = append(bases, site.Elem)
	}
	for _, site := range p.bodyLoads {
		for _, k := range site.Checked {
			bases = append(bases, site.Dims[k])
			p.dimBound = append(p.dimBound, site.Tensor.Shape[k])
		}
	}
	for _, h := range p.nestLoads {
		bases = append(bases, h.site.Elem)
	}
	var tile levelAffine
	for k, li := range p.tileLevels {
		tile.Terms = append(tile.Terms, coefTerm{Level: li, Coef: p.tileStrideList[k]})
	}
	bases = append(bases, tile)
	p.nestConst, p.nestCols = make([]int, len(bases)), make([][]int, p.nestFrom)
	for i, b := range bases {
		p.nestConst[i] = b.Const
		for _, t := range b.Terms {
			if t.Level < p.nestFrom {
				if p.nestCols[t.Level] == nil {
					p.nestCols[t.Level] = make([]int, len(bases))
				}
				p.nestCols[t.Level][i] = t.Coef
			}
		}
	}
	ng, ns, nd := len(inner.Guards), len(p.bodyLoads), len(p.dimBound)
	boxable := true
	for r := 0; r <= p.nestTop; r++ {
		st := &p.nest[r]
		st.step = make([]int, len(bases))
		for i, b := range bases {
			st.step[i] = b.coefOf(st.d)
		}
		st.guard, st.elem = st.step[:ng], st.step[ng:ng+ns]
		st.dim, st.hoist = st.step[ng+ns:ng+ns+nd], st.step[ng+ns+nd:len(bases)-1]
		st.tile = st.step[len(bases)-1]
		// nestUniformRange reads lo and hi of the rank below the box's top,
		// above of the top.
		if r < p.nestTop {
			st.lo, st.hi = make([]int, len(bases)), make([]int, len(bases))
			e := st.lv.Extent - 1
			for i, step := range st.step {
				st.lo[i], st.hi[i] = min(e*step, 0), max(e*step, 0)
				if r > 0 {
					st.lo[i] += p.nest[r-1].lo[i]
					st.hi[i] += p.nest[r-1].hi[i]
				}
			}
		}
		if r > 0 {
			st.above = make([]bool, len(bases))
			for i, step := range st.step {
				st.above[i] = step != 0 || (r > 1 && p.nest[r-1].above[i])
			}
			boxable = boxable && boxes(st.lv)
			st.boxable = boxable
			for st.loadsFrom < len(p.nestLoads) && p.nestLoads[st.loadsFrom].level > r {
				st.loadsFrom++
			}
		}
		st.box = p.boxTemplate(r)
	}
}

// boxTemplate builds the template of the boxes topped by nest rank r.
func (p *Program) boxTemplate(r int) boxTemplate {
	var bt boxTemplate
	var steps [maxNestRank]int // a site's element strides along the box's ranks
	if r > 0 {
		for k := p.nest[r].loadsFrom; k < len(p.nestLoads); k++ {
			for s := 1; s <= r; s++ {
				steps[s] = p.nest[s].hoist[k]
			}
			ls := boxSite(0, &steps)
			ls.Level = uint8(p.nestLoads[k].level)
			bt.sites = append(bt.sites, ls)
			bt.code.pro[ls.Level]++
		}
	}
	canOOB := uint64(0)
	for si, site := range p.bodyLoads {
		if site.CanOOB {
			canOOB++
		}
		for s := 0; s <= r; s++ {
			steps[s] = p.nest[s].elem[si]
		}
		bt.sites = append(bt.sites, boxSite(0, &steps))
	}
	// Stream order within an iteration: body loads, spill reload, FMA burst
	// (no data), spill writeback.
	for s := 0; s <= r; s++ {
		steps[s] = p.nest[s].tile
	}
	ls := boxSite(0, &steps)
	bt.sites = append(bt.sites, ls)
	ls.Write = true
	bt.sites = append(bt.sites, ls)
	bt.checks = uint64(len(p.nest[0].lv.Guards)) + canOOB
	bt.nInstr = 2*bt.checks + uint64(p.bodyFLOPs) + 2
	// One iteration of a nest rank is its prologue, the whole extent of the
	// rank below, and its epilogue: the overhead pair of each folded level,
	// which exits, then its own; it sees the rank below exit once. Every
	// ALU instruction here is half of an ALU+branch pair.
	bt.dims = [maxNestRank]int{1, 1, 1}
	bt.pairs, bt.iters = bt.checks+1, 1
	for s := 0; s < r; s++ {
		e, fold := uint64(p.nest[s].lv.Extent), p.nest[s+1].foldPairs
		bt.dims[s] = int(e)
		bt.code.epi[s+1] = 2 + 2*fold
		bt.proTotal += bt.code.pro[s+1]
		bt.epiTotal += bt.code.epi[s+1]
		bt.pairs, bt.exits, bt.iters = e*bt.pairs+1+fold, e*bt.exits+1+fold, e*bt.iters
		bt.proLoads = e*bt.proLoads + bt.code.pro[s+1]
	}
	return bt
}

// resolveAccess lowers a TE access to loop levels: per-dimension affines,
// the flattened element offset, the padding-guard flag, and the hoist level.
func (p *Program) resolveAccess(acc *te.Access) *accessSite {
	site := &accessSite{Tensor: acc.Tensor, HoistLevel: -1}
	site.Dims = p.resolveDims(acc.Index)
	for d, aff := range acc.Index {
		lo, hi := dimRangeFromAxes(aff)
		if lo < 0 || hi >= acc.Tensor.Shape[d] {
			site.Checked = append(site.Checked, d)
		}
	}
	site.CanOOB = len(site.Checked) > 0
	site.Elem = flattenDims(site.Dims, acc.Tensor.Stride)
	for _, t := range site.Elem.Terms {
		if t.Coef != 0 && t.Level > site.HoistLevel {
			site.HoistLevel = t.Level
		}
	}
	return site
}

// resolveDims maps axis-affine indices onto loop-level affines.
func (p *Program) resolveDims(index []te.Affine) []levelAffine {
	dims := make([]levelAffine, len(index))
	for d, aff := range index {
		la := levelAffine{Const: aff.Const}
		for _, t := range aff.Terms {
			for _, lt := range p.axisTerms[t.Axis.ID] {
				la.Terms = append(la.Terms, coefTerm{Level: lt.Level, Coef: t.Coef * lt.Coef})
			}
		}
		dims[d] = mergeTerms(la)
	}
	return dims
}

// flattenDims combines per-dimension affines into one element-offset affine
// using the tensor's element strides.
func flattenDims(dims []levelAffine, strides []int) levelAffine {
	el := levelAffine{}
	for d, la := range dims {
		el.Const += strides[d] * la.Const
		for _, t := range la.Terms {
			el.Terms = append(el.Terms, coefTerm{Level: t.Level, Coef: strides[d] * t.Coef})
		}
	}
	return mergeTerms(el)
}

// dimRangeFromAxes bounds one access-dimension index using post-guard axis
// values (0..extent-1) plus the affine constant; padding constants can still
// push the index outside the tensor.
func dimRangeFromAxes(aff te.Affine) (lo, hi int) {
	lo, hi = aff.Const, aff.Const
	for _, term := range aff.Terms {
		span := term.Coef * (term.Axis.Extent - 1)
		if span < 0 {
			lo += span
		} else {
			hi += span
		}
	}
	return lo, hi
}

// mergeTerms combines duplicate levels and drops zero coefficients,
// producing a deterministic ascending-level term order.
func mergeTerms(a levelAffine) levelAffine {
	byLevel := map[int]int{}
	for _, t := range a.Terms {
		byLevel[t.Level] += t.Coef
	}
	levels := make([]int, 0, len(byLevel))
	for lvl, c := range byLevel {
		if c != 0 {
			levels = append(levels, lvl)
		}
	}
	sort.Ints(levels)
	out := levelAffine{Const: a.Const}
	for _, lvl := range levels {
		out.Terms = append(out.Terms, coefTerm{Level: lvl, Coef: byLevel[lvl]})
	}
	return out
}

// layoutCode computes static code sizes and block offsets for I-fetch PCs.
//
// Model: each loop level owns a code block inside its parent's iteration
// block. Non-unrolled loops re-execute one iteration block; unrolled loops
// lay out Extent copies back to back. The init and store blocks of the
// reduction live immediately before/after the outermost reduce level's
// block. Sizes are upper bounds over every emission path of the executor
// (guarded loads, spill reloads, vector bodies plus their scalar-remainder
// loops, nested store-loop overhead), so PCs never leave the code segment.
func (p *Program) layoutCode() {
	ib := uint64(p.Model.InstBytes)
	nl := len(p.levels)
	p.initSize = uint64(p.accRegs) * ib

	// loadInsts bounds the instructions of scalar loads (guard + branch for
	// OOB-able sites).
	loadInsts := func(sites []*accessSite) int {
		n := 0
		for _, s := range sites {
			n++
			if s.CanOOB {
				n += 2
			}
		}
		return n
	}
	spillBody := 0
	if p.spillRegs > 0 {
		spillBody = 2
	}
	// One store-phase point: epilogue loads, spill reload, epilogue flops,
	// the store itself.
	storePoint := loadInsts(p.epiLoads) + p.epiFLOPs + 1
	if p.spillRegs > 0 {
		storePoint++
	}
	// Store loop: per-point code plus loop overhead of every tile level and
	// re-checked guards.
	storeInsts := 2*len(storeGuards(p)) + storePoint + 2*(len(p.tileLevels)+1)
	p.storeBodySize = uint64(storeInsts) * ib

	// Innermost body: scalar path (+ inline store when there is no
	// reduction); vectorized loops additionally carry the SIMD path and a
	// scalar remainder loop, like real codegen.
	scalarBody := loadInsts(p.bodyLoads) + p.bodyFLOPs + spillBody
	if p.reduceStart == nl {
		scalarBody += storePoint
	}
	bodyInsts := scalarBody
	if inner := p.levels[nl-1]; inner.Vector {
		vecPath := 0
		for _, site := range p.bodyLoads {
			switch {
			case site.CanOOB:
				vecPath += 3 + 3*inner.Lanes + 1
			case site.Elem.coefOf(nl-1) == 1:
				vecPath++
			default:
				vecPath += inner.Lanes + 1
			}
		}
		vecPath += p.bodyFLOPs + spillBody
		if p.reduceStart == nl {
			vecPath += inner.Lanes * storePoint
		}
		bodyInsts = scalarBody*inner.Lanes + vecPath
	}

	pre := make([]uint64, nl)
	var childBlock uint64
	for d := nl - 1; d >= 0; d-- {
		lv := p.levels[d]
		pre[d] = uint64(2*len(lv.Guards)+loadInsts(lv.Hoisted)) * ib
		var body uint64
		if d == nl-1 {
			body = uint64(bodyInsts) * ib
		} else {
			body = childBlock
			if d+1 == p.reduceStart {
				body += p.initSize + p.storeBodySize
			}
		}
		overhead := uint64(0)
		if !lv.Unrolled {
			overhead = 2 * ib
		}
		lv.PerIterSize = pre[d] + body + overhead
		copies := uint64(1)
		if lv.Unrolled {
			copies = uint64(lv.Extent)
		}
		childBlock = lv.PerIterSize * copies
	}
	// Block offsets within the parent iteration block.
	p.preheaderSize = uint64(8+loadInsts(p.preheader)) * ib
	for d := 0; d < nl; d++ {
		if d == 0 {
			off := p.preheaderSize
			if p.reduceStart == 0 {
				off += p.initSize
			}
			p.levels[d].BlockOff = off
			continue
		}
		off := pre[d-1]
		if d == p.reduceStart {
			off += p.initSize
		}
		p.levels[d].BlockOff = off
	}
	p.codeSize = p.preheaderSize + childBlock
	if p.reduceStart == 0 {
		p.codeSize += p.initSize + p.storeBodySize
	}
	if p.codeSize < 64 {
		p.codeSize = 64
	}
}

// storeGuards returns the axis guards that must be re-checked inside the
// store loop (guards whose deepest level lies in the register tile).
func storeGuards(p *Program) []axisGuard {
	var out []axisGuard
	for _, li := range p.tileLevels {
		out = append(out, p.levels[li].Guards...)
	}
	return out
}
