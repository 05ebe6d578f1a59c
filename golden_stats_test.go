package simtune_test

// Golden-stats regression fixtures: the complete per-level cache statistics
// and timing-model cycles of four default-schedule workloads, pinned to the
// exact values the per-instruction scalar replay produces. The RISC-V conv
// fixture dates from the seed tree; the x86 and ARM conv rows and the RISC-V
// matmul row were generated at the parent of the bulk-fetch-run change (PR
// 11's tree), before the executor was touched — that change rewires exactly
// the path the 4-byte-instruction ISAs take. The differential tests compare
// the aggregated encoding against the per-instruction one *within* a build —
// these fixtures additionally pin both against history, so a silent counter
// drift that changed the two encodings in lockstep (a bug in the shared
// model, or a "fast path" that redefined a counter) fails tier-1 loudly.

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// goldenLevel is one cache level's pinned counters (reads/writes as
// hits+misses pairs, replacements, writebacks).
type goldenLevel struct {
	name                   string
	rdHits, rdMisses       uint64
	wrHits, wrMisses       uint64
	rdRepl, wrRepl, wbacks uint64
}

// goldenCase pins one (workload, ISA) default-schedule execution.
type goldenCase struct {
	wl        func() *te.Workload
	arch      isa.Arch
	total     uint64
	instr     map[isa.Class]uint64
	loopExits uint64
	levels    []goldenLevel
	cycles    float64
	mispred   uint64
}

func convSmall1() *te.Workload { return te.ConvGroup(te.ScaleSmall, 1) }

// convSmall1Instr is ISA-independent: the three ISAs lower the default
// schedule to the same instruction mix and differ only in code layout.
var convSmall1Instr = map[isa.Class]uint64{
	isa.Load:   888192,
	isa.Store:  6272,
	isa.ALU:    1116657,
	isa.FMA:    464128,
	isa.Branch: 1110377,
}

var (
	goldenConvSmall1RISCV = goldenCase{wl: convSmall1, arch: isa.RISCV,
		total: 3585626, instr: convSmall1Instr, loopExits: 207210,
		levels: []goldenLevel{
			{name: "L1D", rdHits: 887687, rdMisses: 505, wrHits: 5880, wrMisses: 392,
				rdRepl: 112, wrRepl: 273, wbacks: 286},
			{name: "L1I", rdHits: 12542, rdMisses: 2},
			{name: "L2", rdHits: 76, rdMisses: 823, wrHits: 286},
		},
		cycles: 4.666693100000001e+06, mispred: 214266}
	goldenConvSmall1X86 = goldenCase{wl: convSmall1, arch: isa.X86,
		total: 3585626, instr: convSmall1Instr, loopExits: 207210,
		levels: []goldenLevel{
			{name: "L1D", rdHits: 887687, rdMisses: 505, wrHits: 5880, wrMisses: 392,
				rdRepl: 112, wrRepl: 273, wbacks: 286},
			{name: "L1I", rdHits: 301054, rdMisses: 2},
			{name: "L2", rdHits: 76, rdMisses: 823, wrHits: 286},
			{name: "L3", rdMisses: 823},
		},
		cycles: 4.5525500912500005e+06, mispred: 216618}
	goldenConvSmall1ARM = goldenCase{wl: convSmall1, arch: isa.ARM,
		total: 3585626, instr: convSmall1Instr, loopExits: 207210,
		levels: []goldenLevel{
			{name: "L1D", rdHits: 887077, rdMisses: 1115, wrHits: 5700, wrMisses: 572,
				rdRepl: 756, wrRepl: 419, wbacks: 415},
			{name: "L1I", rdHits: 301054, rdMisses: 2},
			{name: "L2", rdHits: 866, rdMisses: 823, wrHits: 415},
		},
		cycles: 5.401556118749999e+06, mispred: 214266}
	goldenMatMul64RISCV = goldenCase{wl: func() *te.Workload { return te.MatMul(64, 64, 64) }, arch: isa.RISCV,
		total: 1327240, loopExits: 4161,
		instr: map[isa.Class]uint64{
			isa.Load:   524288,
			isa.Store:  4096,
			isa.ALU:    270408,
			isa.FMA:    262144,
			isa.Branch: 266304,
		},
		levels: []goldenLevel{
			{name: "L1D", rdHits: 523776, rdMisses: 512, wrHits: 3840, wrMisses: 256,
				rdRepl: 128, wrRepl: 128, wbacks: 128},
			{name: "L1I", rdMisses: 1},
			{name: "L2", rdMisses: 769, wrHits: 128},
		},
		cycles: 1.4476572e+06, mispred: 4161}
)

func TestGoldenStatsConvSmall1RISCV(t *testing.T) { checkGolden(t, goldenConvSmall1RISCV) }
func TestGoldenStatsConvSmall1X86(t *testing.T)   { checkGolden(t, goldenConvSmall1X86) }
func TestGoldenStatsConvSmall1ARM(t *testing.T)   { checkGolden(t, goldenConvSmall1ARM) }
func TestGoldenStatsMatMul64RISCV(t *testing.T)   { checkGolden(t, goldenMatMul64RISCV) }

func checkGolden(t *testing.T, g goldenCase) {
	prog, err := lower.Build(schedule.New(g.wl().Op), isa.Lookup(g.arch))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(prog, hw.Lookup(g.arch).Caches)
	if err != nil {
		t.Fatal(err)
	}

	if st.Total != g.total {
		t.Errorf("Total = %d, golden %d", st.Total, g.total)
	}
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		if got, want := st.Instr[cl], g.instr[cl]; got != want {
			t.Errorf("Instr[%v] = %d, golden %d", cl, got, want)
		}
	}
	loads := g.instr[isa.Load] + g.instr[isa.VLoad]
	stores := g.instr[isa.Store] + g.instr[isa.VStore]
	branches := g.instr[isa.Branch]
	if st.Loads != loads || st.Stores != stores || st.Branches != branches {
		t.Errorf("aggregates = (%d, %d, %d), golden (%d, %d, %d)",
			st.Loads, st.Stores, st.Branches, loads, stores, branches)
	}
	if st.LoopExits != g.loopExits {
		t.Errorf("LoopExits = %d, golden %d", st.LoopExits, g.loopExits)
	}

	if len(st.Caches) != len(g.levels) {
		t.Fatalf("levels = %d, golden %d", len(st.Caches), len(g.levels))
	}
	for i, lv := range g.levels {
		got := st.Caches[i]
		if got.Name != lv.name {
			t.Fatalf("level %d = %s, golden %s", i, got.Name, lv.name)
		}
		want := cache.Stats{
			Hits:       [2]uint64{cache.KindRead: lv.rdHits, cache.KindWrite: lv.wrHits},
			Misses:     [2]uint64{cache.KindRead: lv.rdMisses, cache.KindWrite: lv.wrMisses},
			Repl:       [2]uint64{cache.KindRead: lv.rdRepl, cache.KindWrite: lv.wrRepl},
			Writebacks: lv.wbacks,
		}
		if got.Stats != want {
			t.Errorf("%s stats drifted:\n got    %+v\n golden %+v", lv.name, got.Stats, want)
		}
	}

	// The timing model consumes the same stream: its cycle count and
	// mispredicts are pinned too. The comparison allows a hair of relative
	// slack (1e-9) because Go may contract a*b+c into FMA on some
	// architectures, shifting the last float bits — any real drift (one
	// whole cycle out of 4.7M is ~2e-7) still fails by orders of magnitude.
	m, err := hw.NewMachine(hw.Lookup(g.arch))
	if err != nil {
		t.Fatal(err)
	}
	lower.Execute(prog, m, false)
	if got := m.Cycles(); math.Abs(got-g.cycles) > g.cycles*1e-9 {
		t.Errorf("hw cycles = %v, golden %v", got, g.cycles)
	}
	if got := m.Mispredicts(); got != g.mispred {
		t.Errorf("hw mispredicts = %d, golden %d", got, g.mispred)
	}
}
