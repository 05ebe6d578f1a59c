package lower

import (
	"repro/internal/isa"
	"repro/internal/schedule"
	"repro/internal/te"
	"repro/internal/tensor"
)

// coefTerm is one sparse affine term coef·vals[Level] over loop levels.
type coefTerm struct {
	Level int
	Coef  int
}

// levelAffine is a sparse affine expression over loop-level values.
type levelAffine struct {
	Terms []coefTerm
	Const int
}

func (a levelAffine) eval(vals []int) int {
	v := a.Const
	for _, t := range a.Terms {
		v += t.Coef * vals[t.Level]
	}
	return v
}

// coefOf returns the coefficient of the given level (0 if absent).
func (a levelAffine) coefOf(level int) int {
	c := 0
	for _, t := range a.Terms {
		if t.Level == level {
			c += t.Coef
		}
	}
	return c
}

// axisGuard is a split-tail bounds check: the reconstructed axis value must
// stay below Extent. It is checked at the deepest loop level of the axis.
type axisGuard struct {
	Axis   *te.Axis
	Extent int
	Value  levelAffine
}

// accessSite is one tensor access of the kernel, resolved to loop levels.
type accessSite struct {
	Tensor *tensor.Tensor
	// Dims are per-tensor-dimension index affines (needed for padding
	// guards and value computation).
	Dims []levelAffine
	// Elem is the flattened element-offset affine (Σ stride·dim).
	Elem levelAffine
	// CanOOB is true when some in-domain iteration indexes outside the
	// tensor (conv padding); such loads are guarded and read 0.
	CanOOB bool
	// Checked lists the dimensions that can leave the tensor
	// (dimRangeFromAxes), the only ones the padding check tests: every
	// other dimension is inside wherever the guards pass. It is non-empty
	// exactly when CanOOB is set.
	Checked []int
	// HoistLevel is the deepest loop level the access depends on; the load
	// is emitted once per iteration of that level. -1 = program preheader.
	HoistLevel int
}

// storeSite describes the output write.
type storeSite struct {
	Tensor *tensor.Tensor
	Dims   []levelAffine
	Elem   levelAffine
}

// level is one compiled loop.
type level struct {
	IV     *schedule.IterVar
	Extent int
	// Unrolled loops replicate code instead of branching.
	Unrolled bool
	// Vector is set on the innermost SIMD loop.
	Vector bool
	// Lanes is the SIMD width of this loop (1 for scalar loops).
	Lanes int
	// Reduce reports whether the underlying axis is a reduction axis.
	Reduce bool
	// Guards checked at the start of each iteration of this level.
	Guards []axisGuard
	// Hoisted loads emitted once per iteration of this level (after guards).
	Hoisted []*accessSite

	// BlockOff is the code offset of this level's block within the parent
	// iteration block; PerIterSize is one iteration's code size (unrolled
	// copies each occupy PerIterSize bytes).
	BlockOff    uint64
	PerIterSize uint64
}

// maxNestRank is how many innermost loop levels the executor runs with the
// body's affines hoisted, and may ship as one LoopRun. Above the innermost
// level a rank is a level that can box (no guards, no unrolling, no padded
// hoisted load): a plain loop of one trip between ranks is folded into the
// ranked level around it, and the nest ends below the first level that
// would take a rank but cannot box (buildNest). It is three because a
// LoopRun is Count × Rows × Planes; a fourth level needs a new event shape
// before it needs anything here.
const maxNestRank = 3

// nestSteps holds, for one nest level, what Build can decide about it once
// per program: the per-iteration deltas of the executor's bases along the
// level, which it adds instead of re-evaluating the body's affines per
// point, and the schedule-static half of the box classifier — the ranges
// of the bases over the rectangle of this level and the ones below, its
// prologue sites and the LoopRun itself bar its addresses and top extent.
// Every rank can box, so whether a rectangle ships as one LoopRun is the
// executor's half to decide: nestUniformRange and rowRanges.
type nestSteps struct {
	// lv is the ranked level, d its index in Program.levels; the one-trip
	// levels between it and the rank below are folded into it.
	lv *level
	d  int
	// step is laid out as the bases: a guard of the innermost level each,
	// a body load's element offset each, a checked dim of the padded body
	// loads each (site order), a Program.nestLoads entry's element offset
	// each, and last the tile index; guard, elem, dim, hoist and tile are
	// its sections.
	step                    []int
	guard, elem, dim, hoist []int
	tile                    int
	// lo and hi are, per base, the least and greatest amounts this level and
	// the ones below add to it over their full extents (below the top rank
	// only); above marks the bases that vary with this level or a rank
	// between it and the row (above the row only). Of the conditions — a
	// guard (value < bound), a checked dim (0 <= value < bound), the spill
	// test (tile index >= bound, either outcome uniform) — those above marks
	// bound a box's range (nestUniformRange), the others are the row's
	// (rowRanges).
	lo, hi []int
	above  []bool

	// loadsFrom indexes in Program.nestLoads the first load hoisted to this
	// rank or one below it, down to the row's parent: a box ships the loads
	// from there on as prologue sites.
	loadsFrom int
	// box is the template of a box topped by this level.
	box boxTemplate
}

// boxTemplate is what every LoopRun topped by one nest level shares: its
// sites with steps, levels and sizes (prologue sites, every body load, the
// spill reload and writeback; shipBox drops the skipped ones and fills in
// the addresses), and the levels below the top, with counts folded.
type boxTemplate struct {
	sites    []LoopSite
	dims     [maxNestRank]int // the row first; the top's is the box's own
	code     boxCode
	proTotal uint64
	epiTotal uint64
	// Per iteration of the top level: ALU+branch pairs, loop exits of the
	// levels below and folded ones, row iterations and prologue loads;
	// checks is the guard and padding pairs of one row iteration and nInstr
	// its instructions but for loads and spill accesses.
	pairs, exits, iters, proLoads, checks, nInstr uint64
}

// boxCode is the code of a box's enclosing levels per rank, in
// instructions: the prologue (its and its folded levels' hoisted loads)
// ahead of the rank below, the epilogue (their overhead pairs) behind it.
type boxCode struct {
	pro, epi [maxNestRank]uint64
}

// nestLoad is a load hoisted to a ranked nest level above the row, or a
// level folded into one: the rank (>= 1) whose iterations load it.
type nestLoad struct {
	site  *accessSite
	level int
}

// Program is an executable lowered kernel for one ISA.
type Program struct {
	Model isa.Model
	Op    *te.ComputeOp
	Sched *schedule.Schedule

	levels []*level
	// reduceStart is the index of the outermost reduce level
	// (len(levels) if the kernel has no reduction axes).
	reduceStart int
	// tileLevels are the spatial levels inside the reduction subtree; their
	// cross product is the register tile of accumulators.
	tileLevels []int
	tileCount  int
	// tileStrideList holds, parallel to tileLevels, each tile level's
	// stride in accumulator indexing.
	tileStrideList []int
	// vecTile is true when the innermost level is a vectorized member of the
	// register tile (accumulators become vector registers).
	vecTile bool

	// body describes the innermost reduction body.
	bodyLoads []*accessSite
	bodyFLOPs int

	// epilogue data (store phase).
	epiLoads []*accessSite
	epiFLOPs int
	store    storeSite

	// Register/spill model.
	accRegs   int // accumulator registers required (vector-adjusted)
	spillRegs int // accumulators beyond the register file, spilled to stack
	spillFrom int // register index at which spilling starts
	stackBase uint64

	// Code layout.
	codeBase      uint64
	codeSize      uint64
	preheaderSize uint64
	initSize      uint64
	storeBodySize uint64
	preheader     []*accessSite // loads invariant to all loops

	// axisTerms give, per compute axis ID, the (level, weight) pairs that
	// reconstruct the axis value from loop-level values.
	axisTerms [][]coefTerm
	numAxes   int

	// nest[r] is the reduction body seen from the nest's rank-r level
	// (nest[0]: the row, the innermost level), for the executor's
	// hoisted-loop path; levels from nestFrom, the top rank nestTop's,
	// inwards take it (len(levels) when none does: a vector or unrolled
	// innermost level).
	nest              [maxNestRank]nestSteps
	nestFrom, nestTop int
	// nestConst and nestCols give the bases, laid out as nestSteps.step,
	// at iteration 0 of every nest level: constants, plus per level above
	// the nest its coefficient in each base (nil where it has none);
	// dimBound holds the tensor extent of each checked dim among them.
	nestConst []int
	nestCols  [][]int
	dimBound  []int
	// nestLoads lists the hoisted loads of the nest ranks above the row,
	// highest rank first: a box ships those of its own ranks as prologue
	// sites, a suffix of this list.
	nestLoads []nestLoad
}

// CodeBytes reports the static code footprint of the generated kernel, the
// quantity that pressures the L1I cache.
func (p *Program) CodeBytes() uint64 { return p.codeSize }

// SpillRegisters reports how many accumulator registers the register
// allocator had to spill to the stack.
func (p *Program) SpillRegisters() int { return p.spillRegs }

// TileCount reports the register-tile accumulator count (scalar elements).
func (p *Program) TileCount() int { return p.tileCount }

// StaticInstrEstimate returns a closed-form estimate of the dynamic
// instruction count without executing the program. The Eq. (4) speedup
// analysis uses it to extrapolate paper-scale instruction counts cheaply.
func (p *Program) StaticInstrEstimate() int64 {
	iters := int64(1)
	var total int64
	perLevelIters := make([]int64, len(p.levels))
	for d, lv := range p.levels {
		n := int64(lv.Extent)
		if lv.Vector && lv.Lanes > 1 {
			n = int64((lv.Extent + lv.Lanes - 1) / lv.Lanes)
		}
		iters *= n
		perLevelIters[d] = iters
		perIter := int64(len(lv.Guards))*2 + int64(len(lv.Hoisted))
		if !lv.Unrolled {
			perIter += 2 // loop add+branch
		}
		total += perLevelIters[d] * perIter
	}
	if len(p.levels) > 0 {
		inner := perLevelIters[len(p.levels)-1]
		total += inner * int64(len(p.bodyLoads)+p.bodyFLOPs)
		if p.spillRegs > 0 && p.accRegs > 0 {
			// The spilled share of the accumulators reloads and writes back
			// per body execution; multiply before dividing, or a share below
			// one half truncates to nothing.
			total += inner * 2 * int64(p.spillRegs) / int64(p.accRegs)
		}
	}
	// Store phase: one store per output point plus epilogue.
	outs := int64(p.Op.SpatialSize())
	total += outs * int64(1+p.epiFLOPs+len(p.epiLoads)+2)
	return total
}
