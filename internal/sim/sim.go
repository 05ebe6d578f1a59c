// Package sim is the instruction-accurate simulator of the reproduction —
// the analogue of gem5 in atomic mode with the SimpleCPU model (§II-C,
// §III-B of the paper). It executes no timing model: it only counts executed
// instructions by class and replays every memory access against a
// parameterizable cache hierarchy replicating the target CPU's geometry
// (Table I). Its output statistics are exactly the quantities the paper's
// score predictor consumes (§III-D):
//
//   - executed load/store/branch instruction counts and the total,
//   - per-cache read/write hits, misses and replacements vs accesses.
package sim

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/lower"
)

// LevelStats pairs a cache level name with its counters.
type LevelStats struct {
	Name  string
	Stats cache.Stats
}

// Stats is the statistics record of one simulated program execution
// (the analogue of a gem5 stats file).
type Stats struct {
	Arch isa.Arch
	// Instr counts executed instructions per class.
	Instr [isa.NumClasses]uint64
	// Total is the executed instruction count.
	Total uint64
	// Loads/Stores/Branches aggregate scalar+vector memory and branch
	// instruction counts.
	Loads    uint64
	Stores   uint64
	Branches uint64
	// LoopExits counts loop-termination branches (not exposed to the
	// predictor; used by tests and diagnostics).
	LoopExits uint64
	// SinkEvents counts protocol events the machine consumed — a diagnostic
	// for the block-aggregation ratio (events per instruction).
	SinkEvents uint64
	// Caches lists per-level counters in L1D, L1I, L2[, L3] order.
	Caches []LevelStats
	// SimWallSeconds is the host wall-clock time this simulation took
	// (measured, used by the Eq. (4) analysis alongside the modelled rate).
	SimWallSeconds float64
}

// Cache returns the stats of a named level (zero value if absent).
func (s *Stats) Cache(name string) (cache.Stats, bool) {
	for _, l := range s.Caches {
		if l.Name == name {
			return l.Stats, true
		}
	}
	return cache.Stats{}, false
}

// Machine is one simulator instance. It implements lower.Sink; feed it a
// program execution and then read Stats. The paper runs many instances in
// parallel (n_parallel); Machines are single-goroutine, so create one per
// worker (or Acquire/Release pooled instances).
type Machine struct {
	model isa.Model
	hier  *cache.Hierarchy
	// counts tallies executed instructions by class and the flagged
	// branches; its GuardBranches stays outside Stats (only the timing
	// model reads it, through Counts).
	counts   lower.Counts
	events   uint64
	lastLine uint64
	haveLine bool
	// observed is set once ObserveMisses gave the hierarchy an observer.
	observed bool
}

// New builds a simulator for an ISA with the given cache geometry.
func New(arch isa.Arch, caches cache.HierarchyConfig) (*Machine, error) {
	h, err := cache.NewHierarchy(caches)
	if err != nil {
		return nil, err
	}
	return &Machine{model: isa.Lookup(arch), hier: h}, nil
}

// ObserveMisses reports every access the machine serves below L1 to f, in
// access order (see cache.Hierarchy.ObserveMisses): the timing model's
// latencies come from here. Only a machine of one's own, from New, may be
// observed — Release refuses an observed one, so an observer never reaches
// the pool Run and the simulate service draw from.
func (m *Machine) ObserveMisses(f cache.MissFunc) {
	m.hier.ObserveMisses(f)
	m.observed = f != nil
}

// Consume implements lower.Sink. EvFetch and EvData events carry their cache
// accesses directly; legacy EvInstr events additionally model the
// instruction fetch at line granularity (sequential code re-uses the current
// line; crossing a line or jumping fetches anew).
func (m *Machine) Consume(events []lower.Event) {
	m.events += uint64(len(events))
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case lower.EvFetch:
			m.hier.Fetch(e.PC, 1)
		case lower.EvData:
			m.hier.Data(e.Addr, uint32(e.Size), e.Class.IsStore())
		default: // EvInstr
			m.counts.ByClass[e.Class]++
			line := e.PC &^ 63
			if !m.haveLine || line != m.lastLine {
				m.hier.Fetch(line, 1)
				m.lastLine = line
				m.haveLine = true
			}
			switch {
			case e.Class.IsLoad():
				m.hier.Data(e.Addr, uint32(e.Size), false)
			case e.Class.IsStore():
				m.hier.Data(e.Addr, uint32(e.Size), true)
			case e.Class == isa.Branch:
				if e.Flags&lower.FlagLoopExit != 0 {
					m.counts.LoopExits++
				}
				if e.Flags&lower.FlagGuard != 0 {
					m.counts.GuardBranches++
				}
			}
		}
	}
}

// ConsumeLoop implements lower.Sink: a uniform loop span is replayed as
// interleaved strided accesses, exactly as its per-event stream would
// arrive (instruction classes arrive through ConsumeCounts). The replay
// itself runs inside the cache package (Hierarchy.DataRun), which takes
// the bulk resident fast path when every touched line already sits in L1D.
func (m *Machine) ConsumeLoop(run *lower.LoopRun) {
	m.events++
	m.hier.DataRun(run.Count, run.Rows, run.Planes, run.Sites)
}

// ConsumePrologueRun implements lower.PrologueRunSink: DataRun replays a
// box's prologue sites in stream order with the rest, and its windowed
// sites only inside their windows.
func (m *Machine) ConsumePrologueRun(run *lower.LoopRun) { m.ConsumeLoop(run) }

// FetchResident implements lower.FetchRunSink: a side-effect-free probe of
// the L1I.
func (m *Machine) FetchResident(lines []uint64) bool { return m.hier.FetchResident(lines) }

// ConsumeFetchRun implements lower.FetchRunSink: a nest box's fetch-line
// crossings, all L1I hits, applied as one protocol event.
func (m *Machine) ConsumeFetchRun(total uint64, lines, lastOrdinals []uint64) {
	m.events++
	m.hier.FetchRun(total, lines, lastOrdinals)
}

// ConsumeCounts implements lower.Sink: bulk per-class instruction and
// flagged-branch counts of the block-aggregated encoding are added
// arithmetically.
func (m *Machine) ConsumeCounts(counts *lower.Counts) {
	for cl, n := range counts.ByClass {
		m.counts.ByClass[cl] += n
	}
	m.counts.LoopExits += counts.LoopExits
	m.counts.GuardBranches += counts.GuardBranches
}

// Counts returns the instruction and flagged-branch tallies so far, the
// same under either event encoding.
func (m *Machine) Counts() lower.Counts { return m.counts }

// Stats snapshots the counters collected so far.
func (m *Machine) Stats() *Stats {
	s := &Stats{Arch: m.model.Arch, Instr: m.counts.ByClass,
		LoopExits: m.counts.LoopExits, SinkEvents: m.events}
	for _, c := range s.Instr {
		s.Total += c
	}
	s.Loads = s.Instr[isa.Load] + s.Instr[isa.VLoad]
	s.Stores = s.Instr[isa.Store] + s.Instr[isa.VStore]
	s.Branches = s.Instr[isa.Branch]
	levels := m.hier.Levels()
	s.Caches = make([]LevelStats, len(levels))
	for i, lv := range levels {
		s.Caches[i] = LevelStats{Name: lv.Config().Name, Stats: lv.Stats}
	}
	return s
}

// CheckInvariants validates cache counter consistency.
func (m *Machine) CheckInvariants() error { return m.hier.CheckStats() }

// Reset clears instruction counters and cache contents (cold start).
func (m *Machine) Reset() {
	m.counts = lower.Counts{}
	m.events = 0
	m.haveLine = false
	m.hier.Reset()
}

// poolKey identifies a machine configuration for pooling.
type poolKey struct {
	arch   isa.Arch
	caches cache.HierarchyConfig
}

// pools holds per-configuration free lists of reset machines, so repeated
// candidate simulations (SimulatorRunner, dataset generation, benchmarks)
// re-use cache hierarchies instead of allocating a fresh one per run. A
// typed map under a mutex: the lookup on either side of every candidate
// allocates nothing.
var (
	poolsMu sync.Mutex
	pools   = map[poolKey]*sync.Pool{}
)

func poolFor(arch isa.Arch, caches cache.HierarchyConfig) *sync.Pool {
	key := poolKey{arch: arch, caches: caches}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[key]
	if p == nil {
		p = &sync.Pool{}
		pools[key] = p
	}
	return p
}

// Acquire returns a reset simulator for the configuration, re-using a pooled
// instance when one is available. Release it after reading Stats.
func Acquire(arch isa.Arch, caches cache.HierarchyConfig) (*Machine, error) {
	if m, _ := poolFor(arch, caches).Get().(*Machine); m != nil {
		return m, nil
	}
	return New(arch, caches)
}

// Release resets a machine and returns it to the configuration's pool. It
// panics on an observed machine, which belongs to its observer.
func Release(m *Machine) {
	if m == nil {
		return
	}
	if m.observed {
		panic("sim: Release of an observed machine")
	}
	m.Reset()
	poolFor(m.model.Arch, m.hier.Cfg).Put(m)
}

// Run executes a lowered program on a pooled simulator instance and returns
// its statistics, including the measured simulation wall time.
func Run(p *lower.Program, caches cache.HierarchyConfig) (*Stats, error) {
	m, err := Acquire(p.Model.Arch, caches)
	if err != nil {
		return nil, err
	}
	defer Release(m)
	start := time.Now()
	lower.Execute(p, m, false)
	stats := m.Stats()
	stats.SimWallSeconds = time.Since(start).Seconds()
	return stats, nil
}
