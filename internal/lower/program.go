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
// body's affines hoisted, and may ship as one LoopRun. It is three because
// a LoopRun is Count × Rows × Planes; a fourth level needs a new event shape
// before it needs anything here.
const maxNestRank = 3

// nestSteps holds, for one nest level, what Build can decide about it once
// per program. The strides are the per-iteration deltas of the body's
// affines along the level, which the executor adds to hoisted bases instead
// of re-evaluating the affines per point. boxable, loadsFrom and conds are
// the schedule-static half of the box classifier: whether this level and
// the nest levels below it can ship as one LoopRun at all, which prologue
// sites that LoopRun carries, and which affine conditions bound the
// iteration range over which it does. The other half — interval arithmetic
// of those conditions on the live bases — is the executor's:
// nestUniformRange above the innermost row, rowRanges along it (which, for
// runNestBlock, also checks that the row is uniform), and one builder,
// shipBox, for every box.
type nestSteps struct {
	guard []int // per guard of the innermost level
	elem  []int // per body load: element offset
	dim   []int // per tensor dimension of the padding-checked body loads, in site order
	tile  int   // accumulator index
	hoist []int // per Program.nestLoads entry: element offset

	// boxable: every level from this one down to the innermost's parent is
	// plain (no guards, not unrolled, no padding-checked hoisted load).
	boxable bool
	// loadsFrom indexes in Program.nestLoads the first load hoisted to this
	// level or one below it, down to the innermost's parent: a box ships
	// the loads from there on as prologue sites.
	loadsFrom int
	// conds lists, for a boxable level, the conditions that vary with some
	// nest level above the innermost (those varying with the innermost
	// only, or with none, are the block check's).
	conds []nestCond
}

// nestCond is one affine condition of the reduction body seen from a box
// level: a split-tail guard (value < bound), one tensor dimension of a
// padding-checked load (0 <= value < bound), or the spill test (tile index
// >= bound, where either outcome is uniform). step is its stride along the
// box level; lo and hi are the least and greatest amounts the levels below
// add to it over their full extents, so the condition is uniform over a
// whole box row exactly when it is at both ends of that range.
type nestCond struct {
	kind   condKind
	idx    int // into the guard bases, or into the flattened dim bases
	step   int
	lo, hi int
	bound  int
}

// condKind says which affine condition a nestCond is.
type condKind uint8

const (
	condGuard condKind = iota
	condDim
	condSpill
)

// nestLoad is a load hoisted to a nest level above the innermost: the nest
// level (>= 1) whose iterations load it, 1 for the innermost's parent.
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
	// tileStride maps a tile level to its stride in accumulator indexing;
	// tileStrideList holds the same strides parallel to tileLevels for the
	// executor's hot path.
	tileStride     map[int]int
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

	// nest[r] is the reduction body seen from the level r above the
	// innermost one (nest[0]: the innermost level itself), for the
	// executor's hoisted-loop path; levels from nestFrom inwards take it
	// (len(levels) when none does: a vector or unrolled innermost level).
	nest     [maxNestRank]nestSteps
	nestFrom int
	// nestLoads lists the hoisted loads of the nest levels above the
	// innermost, highest level first: a box ships those of its own levels
	// as prologue sites, a suffix of this list.
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
