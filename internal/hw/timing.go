package hw

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/lower"
)

// Machine is the cycle-approximate timing model of one target CPU. It
// implements lower.Sink: feed it a program execution and read Seconds().
//
// It deliberately models effects the instruction-accurate simulator cannot
// see, so that reference times are a richer function of the instruction
// stream than the IA statistics (the learning problem of the paper):
//
//   - per-class issue costs (wide OoO x86 retires more per cycle than the
//     dual-issue in-order U74),
//   - cache-miss latencies damped by an out-of-order/MLP overlap factor,
//   - a stream prefetcher that hides most of the latency of unit-stride
//     misses (aggressive on x86, nearly absent on the U74),
//   - branch-mispredict penalties on loop exits and periodically on guard
//     branches.
//
// Cycle accounting is split by order sensitivity so the block-aggregated
// event encoding stays bit-identical to the per-instruction one: issue costs
// and mispredict penalties are pure functions of instruction/branch counts
// and are summed arithmetically in Cycles(), while cache-miss latencies —
// whose floating-point accumulation order matters — are added in event-
// stream order, which both encodings emit identically.
type Machine struct {
	Prof Profile
	hier *cache.Hierarchy

	// instr counts executed instructions per class (issue cycles are
	// count·IssueCost, computed in Cycles()).
	instr [isa.NumClasses]uint64
	// loopExits and guardBranches count flagged branches; mispredicts and
	// their penalties are derived in mispredicts()/Cycles().
	loopExits     uint64
	guardBranches uint64
	// latencyCycles accumulates cache-miss latencies in stream order.
	latencyCycles float64

	lastLine uint64
	haveLine bool

	// streams maps a 4 KiB page to the last missed line address within it,
	// implementing a unit-stride stream detector.
	streams map[uint64]uint64
}

// NewMachine builds the timing model for a profile.
func NewMachine(prof Profile) (*Machine, error) {
	h, err := cache.NewHierarchy(prof.Caches)
	if err != nil {
		return nil, err
	}
	return &Machine{Prof: prof, hier: h, streams: make(map[uint64]uint64, 64)}, nil
}

// Consume implements lower.Sink. EvFetch/EvData events of the block-
// aggregated encoding carry their cache accesses directly; legacy EvInstr
// events additionally model the line-granular instruction fetch and tally
// their own class/flag counts.
func (m *Machine) Consume(events []lower.Event) {
	t := &m.Prof.Timing
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case lower.EvFetch:
			if depth := m.hier.Fetch(e.PC, 1); depth > 1 {
				m.latencyCycles += t.Latency[depth] * (1 - t.MLPOverlap)
			}
		case lower.EvData:
			m.dataAccess(e, t)
		default: // EvInstr
			m.instr[e.Class]++

			// Front end: instruction fetch at line granularity.
			line := e.PC &^ 63
			if !m.haveLine || line != m.lastLine {
				if depth := m.hier.Fetch(line, 1); depth > 1 {
					m.latencyCycles += t.Latency[depth] * (1 - t.MLPOverlap)
				}
				m.lastLine = line
				m.haveLine = true
			}

			switch {
			case e.Class.IsLoad(), e.Class.IsStore():
				m.dataAccess(e, t)
			case e.Flags&lower.FlagLoopExit != 0:
				m.loopExits++
			case e.Flags&lower.FlagGuard != 0:
				m.guardBranches++
			}
		}
	}
}

// dataAccess replays one load/store through the hierarchy and charges its
// miss latency (damped by prefetch, write buffers and MLP overlap).
func (m *Machine) dataAccess(e *lower.Event, t *TimingParams) {
	m.dataAccessAddr(e.Addr, uint32(e.Size), e.Class.IsStore(), t)
}

func (m *Machine) dataAccessAddr(addr uint64, size uint32, write bool, t *TimingParams) {
	depth := m.hier.Data(addr, size, write)
	if depth > 1 {
		lat := t.Latency[depth]
		if m.streamHit(addr) {
			lat *= 1 - t.PrefetchEff
		}
		// Store misses are mostly hidden by write buffers; charge a quarter
		// of the load penalty.
		if write {
			lat *= 0.25
		}
		m.latencyCycles += lat * (1 - t.MLPOverlap)
	}
}

// ConsumeLoop implements lower.Sink: the span's accesses are replayed in
// interleaved order, so miss latencies accumulate exactly as the per-event
// stream would (issue costs arrive through ConsumeCounts). A span whose
// lines are all resident in L1D takes the cache package's bulk fast path:
// every access hits, so it contributes no miss latency and never touches
// the stream detector (which only observes misses) — bit-identical cycles
// at a fraction of the replay cost.
func (m *Machine) ConsumeLoop(run *lower.LoopRun) {
	t := &m.Prof.Timing
	rows, planes := run.Rows, run.Planes
	if rows < 1 {
		rows = 1
	}
	if planes < 1 {
		planes = 1
	}
	if m.hier.TryDataRunResident(run.Count, rows, planes, run.Sites) {
		return
	}
	for k := 0; k < planes; k++ {
		for j := 0; j < rows; j++ {
			for i := 0; i < run.Count; i++ {
				for s := range run.Sites {
					site := &run.Sites[s]
					addr := site.Addr + uint64(int64(k)*site.PlaneStep+int64(j)*site.RowStep+int64(i)*site.Step)
					m.dataAccessAddr(addr, uint32(site.Size), site.Write, t)
				}
			}
		}
	}
}

// FetchResident implements lower.FetchRunSink: a side-effect-free probe of
// the L1I.
func (m *Machine) FetchResident(lines []uint64) bool { return m.hier.FetchResident(lines) }

// ConsumeFetchRun implements lower.FetchRunSink: every fetch of the run hits
// in L1I, so it adds no latency.
func (m *Machine) ConsumeFetchRun(total uint64, lines, lastOrdinals []uint64) {
	m.hier.FetchRun(total, lines, lastOrdinals)
}

// ConsumeCounts implements lower.Sink: bulk instruction and flagged-branch
// counts of the block-aggregated encoding. Issue cycles and mispredict
// penalties are derived from these totals in Cycles(), so adding them in one
// step is exact.
func (m *Machine) ConsumeCounts(counts *lower.Counts) {
	for cl, n := range counts.ByClass {
		m.instr[cl] += n
	}
	m.loopExits += counts.LoopExits
	m.guardBranches += counts.GuardBranches
}

// streamHit updates the unit-stride detector and reports whether the missed
// line continues a detected stream (and would have been prefetched).
func (m *Machine) streamHit(addr uint64) bool {
	page := addr >> 12
	line := addr >> 6
	last, ok := m.streams[page]
	m.streams[page] = line
	if len(m.streams) > 4096 { // bound the table like real prefetchers do
		for k := range m.streams {
			delete(m.streams, k)
			if len(m.streams) <= 64 {
				break
			}
		}
	}
	return ok && (line == last+1 || line == last)
}

// mispredicts derives the modelled mispredict count: every loop exit plus
// every GuardMispredictEvery-th guard branch.
func (m *Machine) mispredicts() uint64 {
	n := m.loopExits
	if every := m.Prof.Timing.GuardMispredictEvery; every > 0 {
		n += m.guardBranches / every
	}
	return n
}

// Cycles returns the accumulated cycle count: per-class issue costs,
// cache-miss latencies and branch-mispredict penalties.
func (m *Machine) Cycles() float64 {
	t := &m.Prof.Timing
	cycles := m.latencyCycles
	for cl, n := range m.instr {
		if n > 0 {
			cycles += float64(n) * t.IssueCost[cl]
		}
	}
	return cycles + float64(m.mispredicts())*t.MispredictPenalty
}

// Mispredicts returns the modelled branch mispredictions.
func (m *Machine) Mispredicts() uint64 { return m.mispredicts() }

// Seconds converts cycles to wall time at the profile's clock and adds the
// fixed per-run call overhead.
func (m *Machine) Seconds() float64 {
	return m.Cycles()/(m.Prof.FreqGHz*1e9) + m.Prof.Timing.CallOverheadSec
}

// Reset clears cycles, caches and predictor state for a fresh run.
func (m *Machine) Reset() {
	m.instr = [isa.NumClasses]uint64{}
	m.loopExits = 0
	m.guardBranches = 0
	m.latencyCycles = 0
	m.haveLine = false
	m.hier.Reset()
	clear(m.streams)
}

// machinePools holds per-profile free lists of reset timing machines, so
// per-candidate measurement re-uses cache hierarchies instead of allocating
// a fresh one per run (Profile is comparable: arrays and flat structs only).
var machinePools sync.Map // Profile -> *sync.Pool

// AcquireMachine returns a reset timing machine for the profile, re-using a
// pooled instance when one is available. ReleaseMachine it after reading
// Cycles()/Seconds().
func AcquireMachine(prof Profile) (*Machine, error) {
	if p, ok := machinePools.Load(prof); ok {
		if m, _ := p.(*sync.Pool).Get().(*Machine); m != nil {
			return m, nil
		}
	}
	return NewMachine(prof)
}

// ReleaseMachine resets a machine and returns it to its profile's pool.
func ReleaseMachine(m *Machine) {
	if m == nil {
		return
	}
	m.Reset()
	p, _ := machinePools.LoadOrStore(m.Prof, &sync.Pool{})
	p.(*sync.Pool).Put(m)
}
