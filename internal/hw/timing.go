package hw

import (
	"sync"

	"repro/internal/sim"
)

// Machine is the cycle-approximate timing model of one target CPU: the
// instruction-accurate simulator plus latencies. It embeds the sim.Machine
// it drives, so it is a lower.Sink through the simulator's own methods: feed
// it a program execution and read Seconds(), or Stats() for what the
// simulator counted.
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
// It owns no cache hierarchy. Its simulator is one of its own, built with
// sim.New and never pooled with the simulator's, whose hierarchy reports
// each access served below L1 back to it (miss); the machine reads the
// simulator's instruction and flagged-branch tallies (sim.Machine.Counts)
// and keeps only the stream detector and the latency sum. Cycle accounting
// is split by order sensitivity so the block-aggregated event encoding
// stays bit-identical to the per-instruction one: issue costs and
// mispredict penalties are pure functions of instruction/branch counts and
// are summed arithmetically in Cycles(), while cache-miss latencies — whose
// floating-point accumulation order matters — are added in access order,
// which both encodings produce identically.
type Machine struct {
	*sim.Machine
	Prof Profile

	// latencyCycles accumulates cache-miss latencies in access order.
	latencyCycles float64

	// streams maps a 4 KiB page to the last missed line address within it,
	// implementing a unit-stride stream detector.
	streams map[uint64]uint64
}

// NewMachine builds the timing model for a profile.
func NewMachine(prof Profile) (*Machine, error) {
	s, err := sim.New(prof.Arch, prof.Caches)
	if err != nil {
		return nil, err
	}
	m := &Machine{Machine: s, Prof: prof, streams: make(map[uint64]uint64, 64)}
	s.ObserveMisses(m.miss)
	return m, nil
}

// miss charges the latency of one access served below L1: a data miss
// damped by prefetch, write buffers and MLP overlap, a fetch miss by MLP
// overlap alone.
func (m *Machine) miss(addr uint64, depth int, write, fetch bool) {
	t := &m.Prof.Timing
	lat := t.Latency[depth]
	if !fetch {
		if m.streamHit(addr) {
			lat *= 1 - t.PrefetchEff
		}
		// Store misses are mostly hidden by write buffers; charge a quarter
		// of the load penalty.
		if write {
			lat *= 0.25
		}
	}
	m.latencyCycles += lat * (1 - t.MLPOverlap)
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

// Cycles returns the accumulated cycle count: per-class issue costs,
// cache-miss latencies and branch-mispredict penalties.
func (m *Machine) Cycles() float64 {
	t := &m.Prof.Timing
	cycles := m.latencyCycles
	for cl, n := range m.Counts().ByClass {
		if n > 0 {
			cycles += float64(n) * t.IssueCost[cl]
		}
	}
	return cycles + float64(m.Mispredicts())*t.MispredictPenalty
}

// Mispredicts returns the modelled branch mispredictions: every loop exit
// plus every GuardMispredictEvery-th guard branch.
func (m *Machine) Mispredicts() uint64 {
	c := m.Counts()
	n := c.LoopExits
	if every := m.Prof.Timing.GuardMispredictEvery; every > 0 {
		n += c.GuardBranches / every
	}
	return n
}

// Seconds converts cycles to wall time at the profile's clock and adds the
// fixed per-run call overhead.
func (m *Machine) Seconds() float64 {
	return m.Cycles()/(m.Prof.FreqGHz*1e9) + m.Prof.Timing.CallOverheadSec
}

// Reset clears cycles, caches and predictor state for a fresh run.
func (m *Machine) Reset() {
	m.latencyCycles = 0
	m.Machine.Reset()
	clear(m.streams)
}

// pools holds per-profile free lists of reset timing machines, so
// per-candidate measurement re-uses cache hierarchies instead of allocating
// a fresh one per run. A typed map under a mutex, as sim's pools are: the
// lookup on either side of every candidate allocates nothing (Profile is
// comparable: arrays and flat structs only).
var (
	poolsMu sync.Mutex
	pools   = map[Profile]*sync.Pool{}
)

func poolFor(prof Profile) *sync.Pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[prof]
	if p == nil {
		p = &sync.Pool{}
		pools[prof] = p
	}
	return p
}

// AcquireMachine returns a reset timing machine for the profile, re-using a
// pooled instance when one is available. ReleaseMachine it after reading
// Cycles()/Seconds().
func AcquireMachine(prof Profile) (*Machine, error) {
	if m, _ := poolFor(prof).Get().(*Machine); m != nil {
		return m, nil
	}
	return NewMachine(prof)
}

// ReleaseMachine resets a machine and returns it to its profile's pool.
func ReleaseMachine(m *Machine) {
	if m == nil {
		return
	}
	m.Reset()
	poolFor(m.Prof).Put(m)
}
