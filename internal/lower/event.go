// Package lower compiles a scheduled tensor kernel into an executable
// loop-nest Program for one target ISA — the analogue of TVM's lowering plus
// LLVM code generation in the paper's flow. Executing a Program produces the
// instruction/memory event stream that both back-ends consume:
//
//   - the instruction-accurate simulator (internal/sim), which counts
//     instruction classes and drives the Table I cache hierarchy and plays
//     the role of gem5 in atomic mode, and
//   - the timing model (internal/hw), which plays the role of the real
//     target hardware: it drives an IA simulator of its own with the same
//     stream and accumulates cycles from the instruction counts and from
//     the misses that simulator's hierarchy reports, so one execution into
//     an hw.Machine yields both worlds.
//
// The lowering reproduces the mechanisms that make different schedules of
// one kernel behave differently on hardware: loop tiling changes locality,
// unrolling removes branch overhead but grows the code footprint (L1I),
// vectorization turns contiguous scalar loads/FMAs into SIMD ones, invariant
// loads are hoisted out of inner loops, register-tile accumulators that
// exceed the architectural register file spill to the stack, and split tails
// or padding emit guard instructions.
//
// # Event protocol
//
// The executor→sink protocol is block-aggregated: instead of materializing
// one event per executed instruction, Execute streams only the events that
// carry per-event state, and delivers everything else as arithmetic
// aggregates. A Sink receives three channels:
//
//   - Consume(events): the ordered event stream. It contains EvData events
//     (one per load/store, with the data address and width) and EvFetch
//     events (one per instruction-fetch line crossing, emitted exactly where
//     a per-instruction walk would have fetched a new L1I line). Order is
//     significant — data accesses and fetch misses share the L2 — and is
//     bit-identical to the per-instruction stream's cache access order.
//   - ConsumeLoop(run): a uniform loop span — Planes × Rows × Count
//     iterations whose guard outcomes, padding checks and spill status the
//     executor has proven constant — shipped as one message of strided
//     access sites. Plain inner-loop spans have Rows = Planes = 1; a
//     uniform parent×inner nest rectangle raises Rows, and a uniform
//     grandparent×parent×inner nest box raises Planes, so whole 3D loop
//     nests arrive as a single protocol event. The sink replays the
//     accesses in interleaved iteration order, which is exactly the order
//     the span's per-event stream would have had. ConsumeLoop calls are
//     ordered relative to Consume batches.
//   - ConsumeCounts(counts): bulk per-class instruction counts plus flagged-
//     branch tallies (loop exits, guard branches) aggregated over the whole
//     execution. These quantities are order-independent: they feed pure
//     counters (sim) or end-of-run arithmetic (hw issue cycles, mispredict
//     penalties), so aggregating them loses no information.
//
// A sink may offer two optional channels, each asserted once per Execute.
// FetchRunSink lets the executor aggregate nest boxes whose code spans
// several I-lines:
//
//   - FetchResident(lines) asks, with no side effects, whether every one of
//     a box's code lines already sits in the sink's L1I, and
//     ConsumeFetchRun(total, lines, lastOrdinals) then delivers all of the
//     box's fetch-line crossings as one message, ahead of the box's LoopRun.
//     This takes the crossings out of their place among the data accesses,
//     and that is sound because a fetch of a resident line commutes with
//     every data access: an L1I hit updates L1I's hit counter, LRU stamp
//     and MRU slot and nothing else — it never reaches the shared L2 — and
//     no data access ever touches L1I. Only the order of the fetches among
//     themselves is observable, through the LRU stamps, and the message
//     carries it as each line's last ordinal within the run. When the probe
//     fails (the first row or plane of cold code, whose misses do go to L2
//     and must stay in stream order) the executor runs that row or plane on
//     the ordered channels and asks again at the next.
//
// PrologueRunSink lets it aggregate nest boxes whose enclosing levels hoist
// loads out of the inner loop, and boxes that padding leaves in part:
//
//   - ConsumePrologueRun(run) delivers a LoopRun whose sites may begin with
//     prologue sites: LoopSite.Level 1 marks a load made once per row,
//     ahead of the row's iterations, and Level 2 one made once per plane,
//     ahead of the plane's rows; sites are listed highest level first. The
//     replay order is per plane its prologue, then per row the row's
//     prologue and the row's interleaved iterations — again exactly the
//     per-event order. Hoisted loads with a padding check never travel this
//     way; their boxes stay on the per-row path.
//   - A body load inside its tensor on part of a box only — a conv's input
//     at an image edge — travels with an active window: LoopSite.Lo/Hi
//     bound the iterations of every row at which it makes its access,
//     RowLo/RowHi the rows of every plane; outside the window the iteration
//     skips the load, as the per-event stream does. The replay honours the
//     window, so the run is still exactly the per-event order. A load the
//     padding leaves in part along the row and across the rows at once (a
//     corner of the image) still cuts the box.
//
// Sinks without a channel — any implementation of the three-method Sink
// outside this repository — receive exactly the stream described above,
// with multi-line boxes, boxes with prologue sites and boxes with windows
// left to the per-row path, where padding cuts the row into spans.
//
// # Executor
//
// Execute walks the loop levels generically (runLevel: guards, hoisted loads,
// child level, loop overhead) down to Program.nestFrom, and from there takes
// the hoisted-loop path, one piece of code for every rank. Above the
// innermost level, the row, a rank is a level that can box: it has no
// guards, is not unrolled and has no padded hoisted load. The nest ends
// below the first level that cannot, which runs generically with every
// level above it, and a plain loop of one trip takes no rank: it rides
// along with the ranked level around it, loads, counts and code.
// Program.nest[r] describes the reduction body as seen from the rank-r
// level (the row at 0), and lower.Build fills it once per program:
//
//   - the bases: each guard value, element offset, padding dimension that
//     can leave its tensor (accessSite.Checked), load hoisted to a nest
//     level (Program.nestLoads) and the tile index, as one slice. runNest
//     sets them once, at iteration 0 of every nest level, from the levels
//     above the nest, and the loops add one stride vector per level from
//     then on (advance) instead of re-evaluating affines per point.
//   - per rank, the range each base covers over that level and the ones
//     below at full extents, which bases vary above the row, the prologue
//     sites it carries (loadsFrom), and the LoopRun itself bar its
//     addresses and top extent, with its counts folded (the template). The
//     template is the one description of a rank's code: an iteration that
//     does not box loads the rank's hoisted loads off the bases, runs the
//     rank below and closes with the template's epilogue pairs.
//
// What is left for run time is arithmetic on the live bases, where an
// affine condition — split-tail guard, padding dimension, spill test — is
// a base against a bound. runNestRows drives one nest rank and
// runInnerSegments the row, and two functions classify every box.
// nestUniformRange takes each condition varying above the row at its least
// and its greatest value over the ranks below and
// intersects the ranges over which it is uniform — passing throughout for
// a guard or a padding dimension, either outcome for the spill test — into
// the next range over which the box repeats, and rowRanges works out the
// row's intervals over which each guard passes, each body load is inside
// its tensor and the accumulator spills; for a box of rank >= 1 it checks,
// guards first, that every guard passes along the whole row and every
// other interval covers it or nothing of it — except that, where the sink
// takes windows, a body load's interval along the row, or one over the
// box's rows from a padding dimension that moves with the rows alone
// (which nestUniformRange then leaves out), becomes that load's window.
// One builder, shipBox, ships every box at ranks 0, 1 and 2 from its
// level's template as bulk counts, one fetch (or one fetch run, whose walk
// of the code lines a later box reuses when it repeats one of the last
// eight; a windowed load makes the iterations in its window one
// instruction longer, so the walk goes over stretches of alike iterations
// and rows) and one LoopRun of prologue, body and spill sites. The
// iterations outside the range go one rank down — to runNestRows again, or
// to the row, which cuts itself at the ends of rowRanges' intervals (a row
// no condition cuts is one span) and hands every span whose guards pass to
// shipBox as a box of rank 0, or, for a body spanning several I-lines,
// runs per iteration (runInnerIter) — and the level looks for its next range.
//
// The nest is maxNestRank = 3 ranks deep because a LoopRun is Count × Rows ×
// Planes. A fourth level would cost a stride table entry here, but a new
// event shape in every sink first.
//
// Uniform non-memory instruction bursts (the bodyFLOPs FMA runs, accumulator
// init blocks, preheader ALU padding) are folded into single count updates
// with fetch line crossings computed from the PC span in O(lines) instead of
// O(instructions).
//
// ExecutePerInstruction emits the legacy encoding — one EvInstr event per
// executed instruction, with sinks modelling the I-fetch themselves and no
// ConsumeCounts call — and never takes the hoisted-loop path: it is the
// reference. Both encodings produce bit-identical statistics and cache
// state (TestBlockAggregationBitIdentical; FuzzNest in internal/sim compares
// them on generated candidates); the aggregated one is several times faster
// and is what every production path uses.
package lower

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// Event flags.
const (
	// FlagLoopExit marks the final (fall-through) branch of a loop, the
	// natural branch-misprediction point of counted loops.
	FlagLoopExit uint8 = 1 << iota
	// FlagGuard marks a guard-check branch (split tails, padding).
	FlagGuard
)

// Kind discriminates the event stream entries of the protocol.
type Kind uint8

const (
	// EvInstr is one executed instruction in the legacy per-instruction
	// encoding: sinks count its class, model its fetch at line granularity,
	// perform its data access (loads/stores) and inspect its flags. The zero
	// value, so hand-built event slices default to it.
	EvInstr Kind = iota
	// EvFetch is an instruction-fetch line crossing: PC holds the 64 B line
	// address to fetch. The executor tracks the current fetch line itself and
	// emits EvFetch exactly where the per-instruction walk would have changed
	// lines, so sinks just perform the access.
	EvFetch
	// EvData is a data access (Class, Addr, Size) whose instruction fetch and
	// class count have already been delivered through EvFetch/ConsumeCounts.
	EvData
)

// Event is one entry of the ordered event stream. In the legacy encoding
// every executed instruction is an EvInstr event; in the block-aggregated
// encoding only fetch line crossings and data accesses appear.
type Event struct {
	// PC is the instruction address (EvInstr, EvData) or the fetched line
	// address (EvFetch).
	PC uint64
	// Addr is the data address for loads/stores (0 otherwise).
	Addr uint64
	// Size is the data-access width in bytes (0 for non-memory ops).
	Size uint16
	// Class is the instruction class.
	Class isa.Class
	// Flags carries branch metadata (EvInstr only).
	Flags uint8
	// Kind discriminates the protocol entry.
	Kind Kind
}

// Counts aggregates the order-independent quantities of one execution:
// per-class instruction counts and flagged-branch tallies.
type Counts struct {
	// ByClass counts executed instructions per class (memory classes
	// included — their EvData events carry only the cache access).
	ByClass [isa.NumClasses]uint64
	// LoopExits counts branches flagged FlagLoopExit.
	LoopExits uint64
	// GuardBranches counts branches flagged FlagGuard.
	GuardBranches uint64
}

// LoopSite is one strided data access of a LoopRun: the address at the
// first iteration plus per-iteration, per-row and per-plane deltas, the
// Level at which it is accessed (0 every iteration; 1 and 2 are row and
// plane prologue sites) and, for a body load the padding leaves in part, an
// active window: the iterations [Lo,Hi) of every row (when Hi > 0) and the
// rows [RowLo,RowHi) of every plane (when RowHi > 0) at which it makes its
// access. Only the PrologueRunSink channel carries prologue sites and
// windows. It is the cache package's RunSite so sinks can hand the sites
// straight to cache.Hierarchy.DataRun without copying.
type LoopSite = cache.RunSite

// LoopRun describes a uniform loop span: Planes × Rows × Count iterations
// that each access the Sites in order, with every site's address advancing
// by Step per inner iteration, RowStep per row and PlaneStep per plane.
// Replaying `for k in [0,Planes): for j in [0,Rows): for i in [0,Count):
// for s in Sites: access(s.Addr + k*s.PlaneStep + j*s.RowStep + i*s.Step)`
// is bit-identical to the interleaved per-event stream the span would
// otherwise emit — the executor proves uniformity (guards, padding checks
// and spill status constant across the span) before emitting one. A run on
// the prologue channel may lead with prologue sites, which the replay
// visits once per plane (Level 2) or row (Level 1) ahead of the rest, at
// s.Addr + k*s.PlaneStep (+ j*s.RowStep), and may carry windowed sites,
// which the replay visits at iteration i of row j only inside the window:
// Lo <= i < Hi where Hi > 0, RowLo <= j < RowHi where RowHi > 0; each
// iteration's other sites keep their order. Rows and
// Planes are 1 for plain inner-loop spans; Rows > 1 covers a uniform
// parent×inner nest rectangle and Planes > 1 a uniform three-level
// grandparent×parent×inner nest box. The struct is only valid during the
// ConsumeLoop call.
type LoopRun struct {
	Count  int
	Rows   int
	Planes int
	Sites  []LoopSite
}

// Sink consumes one program execution: the ordered event stream through
// Consume (batches are only valid during the call; implementations must not
// retain the slice), uniform inner-loop spans through ConsumeLoop (ordered
// relative to Consume batches), and the bulk aggregates through
// ConsumeCounts (called once per Execute, at the end; never called by
// ExecutePerInstruction).
type Sink interface {
	Consume(events []Event)
	ConsumeLoop(run *LoopRun)
	ConsumeCounts(counts *Counts)
}

// FetchRunSink is the optional fetch-run channel of a Sink (see the package
// comment): a sink that models an L1I can take a resident box's fetch-line
// crossings as one message instead of one EvFetch each.
type FetchRunSink interface {
	// FetchResident reports whether every line (64 B-aligned code
	// addresses, as EvFetch carries them) would hit in the sink's L1I right
	// now. It must not change any state. Events delivered so far count: the
	// executor flushes its buffer before asking.
	FetchResident(lines []uint64) bool
	// ConsumeFetchRun delivers total fetches of lines, all hits since
	// FetchResident(lines) just returned true: lastOrdinals[i] is the
	// 1-based position of the last fetch of lines[i] within the run, 0 when
	// the run never fetches it. The slices are only valid during the call.
	ConsumeFetchRun(total uint64, lines, lastOrdinals []uint64)
}

// PrologueRunSink is the optional prologue channel of a Sink (see the
// package comment): a sink whose replay honours LoopSite.Level and the
// sites' windows can take nest boxes whose enclosing levels hoist loads,
// with those loads as prologue sites, and boxes that padding leaves in
// part, with windowed sites, instead of one row or one span at a time.
type PrologueRunSink interface {
	// ConsumePrologueRun delivers a LoopRun whose sites begin with prologue
	// sites (Level 1 or 2, highest level first) or carry windows, or both,
	// ordered like ConsumeLoop calls relative to the other channels. The
	// run is only valid during the call.
	ConsumePrologueRun(run *LoopRun)
}

// CountingSink tallies events by class; used in tests and quick estimates.
// It models no L1I, so on the fetch-run channel every line is resident, and
// it takes the prologue channel.
type CountingSink struct {
	ByClass [isa.NumClasses]uint64
	Total   uint64
	Loads   uint64
	Stores  uint64
	// LoopExits/GuardBranches tally flagged branches (aggregated encoding
	// and legacy EvInstr events alike).
	LoopExits     uint64
	GuardBranches uint64
	// Events counts protocol events received, a diagnostic for the
	// aggregation ratio (events per instruction).
	Events uint64
}

// Consume implements Sink.
func (c *CountingSink) Consume(events []Event) {
	c.Events += uint64(len(events))
	for i := range events {
		e := &events[i]
		if e.Kind != EvInstr {
			continue // counted through ConsumeCounts
		}
		c.ByClass[e.Class]++
		c.Total++
		if e.Class.IsLoad() {
			c.Loads++
		}
		if e.Class.IsStore() {
			c.Stores++
		}
		if e.Flags&FlagLoopExit != 0 {
			c.LoopExits++
		}
		if e.Flags&FlagGuard != 0 {
			c.GuardBranches++
		}
	}
}

// ConsumeLoop implements Sink (instruction classes of a span arrive through
// ConsumeCounts; the span itself counts as one protocol event).
func (c *CountingSink) ConsumeLoop(run *LoopRun) {
	c.Events++
}

// FetchResident implements FetchRunSink.
func (c *CountingSink) FetchResident([]uint64) bool { return true }

// ConsumeFetchRun implements FetchRunSink (a run is one protocol event).
func (c *CountingSink) ConsumeFetchRun(uint64, []uint64, []uint64) { c.Events++ }

// ConsumePrologueRun implements PrologueRunSink (a run is one protocol
// event).
func (c *CountingSink) ConsumePrologueRun(*LoopRun) { c.Events++ }

// ConsumeCounts implements Sink.
func (c *CountingSink) ConsumeCounts(counts *Counts) {
	for cl, n := range counts.ByClass {
		c.ByClass[cl] += n
		c.Total += n
		if isa.Class(cl).IsLoad() {
			c.Loads += n
		}
		if isa.Class(cl).IsStore() {
			c.Stores += n
		}
	}
	c.LoopExits += counts.LoopExits
	c.GuardBranches += counts.GuardBranches
}

// batchSize is the executor's event-buffer length. 1024 events (24 KiB)
// keep the producer/consumer hand-off within the host L1/L2 while still
// amortizing the sink's interface dispatch.
const batchSize = 1024

// emitter buffers events and flushes them to a sink in batches.
type emitter struct {
	sink Sink
	buf  []Event
}

func (e *emitter) emit(ev Event) {
	e.buf = append(e.buf, ev)
	if len(e.buf) == batchSize {
		e.flush()
	}
}

//go:noinline
func (e *emitter) flush() {
	if len(e.buf) > 0 {
		e.sink.Consume(e.buf)
		e.buf = e.buf[:0]
	}
}
