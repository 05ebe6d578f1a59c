package lower

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/te"
)

// fillInputs gives every input tensor deterministic non-trivial data.
func fillInputs(op *te.ComputeOp, seed uint64) {
	rng := num.NewRNG(seed)
	for _, in := range op.Inputs {
		in.Alloc()
		for i := range in.Data {
			in.Data[i] = float32(rng.Uniform(-2, 2))
		}
	}
}

// runAndCompare executes the program with value computation and checks the
// output against the reference evaluation.
func runAndCompare(t *testing.T, wl *te.Workload, s *schedule.Schedule, model isa.Model) *CountingSink {
	t.Helper()
	fillInputs(wl.Op, 42)
	p, err := Build(s, model)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sink := &CountingSink{}
	Execute(p, sink, true)
	got := append([]float32(nil), wl.Op.Out.Data...)
	wl.Op.ReferenceEval()
	want := wl.Op.Out.Data
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-3*(1+math.Abs(float64(want[i]))) {
			t.Fatalf("output[%d] = %v want %v (schedule %s)", i, got[i], want[i], s)
		}
	}
	return sink
}

func TestDefaultScheduleMatchesReference(t *testing.T) {
	for _, arch := range isa.Archs() {
		wl := te.MatMul(7, 5, 6)
		s := schedule.New(wl.Op)
		runAndCompare(t, wl, s, isa.Lookup(arch))
	}
}

func TestConvDefaultScheduleMatchesReference(t *testing.T) {
	for _, arch := range isa.Archs() {
		wl := te.ConvGroup(te.ScaleTiny, 0)
		s := schedule.New(wl.Op)
		runAndCompare(t, wl, s, isa.Lookup(arch))
	}
}

func TestTiledScheduleMatchesReference(t *testing.T) {
	wl := te.MatMul(16, 12, 16)
	s := schedule.New(wl.Op)
	i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
	_, ii, _ := s.Split(i, 4)
	jo, ji, _ := s.Split(j, 8)
	ko, ki, _ := s.Split(k, 3)
	if err := s.Reorder([]*schedule.IterVar{s.Leaves[0], jo, ko, ii, ki, ji}); err != nil {
		t.Fatal(err)
	}
	_ = s.Vectorize(ji)
	runAndCompare(t, wl, s, isa.Lookup(isa.X86))
}

func TestNonDivisibleSplitMatchesReference(t *testing.T) {
	// 10 split by 3 and 7 split by 4 both leave tails.
	wl := te.MatMul(10, 7, 9)
	s := schedule.New(wl.Op)
	_, _, _ = s.Split(s.Leaves[0], 3)
	_, _, _ = s.Split(s.Leaves[2], 4) // j
	runAndCompare(t, wl, s, isa.Lookup(isa.ARM))
}

func TestUnrolledScheduleMatchesReference(t *testing.T) {
	wl := te.MatMul(8, 6, 8)
	s := schedule.New(wl.Op)
	_, ki, _ := s.Split(s.Leaves[2], 3)
	_ = s.Unroll(ki)
	runAndCompare(t, wl, s, isa.Lookup(isa.RISCV))
}

func TestVectorTailMatchesReference(t *testing.T) {
	// j extent 13 vectorized on 8-lane x86: one full vector + 5-lane tail.
	wl := te.MatMul(4, 5, 13)
	s := schedule.New(wl.Op)
	_ = s.Vectorize(s.Leaves[1])
	// Reorder so j is innermost.
	i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
	_ = s.Reorder([]*schedule.IterVar{i, k, j})
	_ = s.Vectorize(j)
	runAndCompare(t, wl, s, isa.Lookup(isa.X86))
}

func TestConvPaddedVectorizedMatchesReference(t *testing.T) {
	wl := te.ConvGroup(te.ScaleTiny, 1) // stride 1, pad 1
	s := schedule.New(wl.Op)
	// vectorize ow (innermost already), reduce loops before it
	leaves := s.Leaves
	ow := leaves[3]
	order := []*schedule.IterVar{leaves[0], leaves[1], leaves[2], leaves[4], leaves[5], leaves[6], ow}
	if err := s.Reorder(order); err != nil {
		t.Fatal(err)
	}
	_ = s.Vectorize(ow)
	runAndCompare(t, wl, s, isa.Lookup(isa.X86))
}

func TestRegisterTileSpillsMatchReference(t *testing.T) {
	// Put a huge spatial tile inside the reduction: forces spills everywhere.
	wl := te.MatMul(16, 8, 16)
	s := schedule.New(wl.Op)
	i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
	if err := s.Reorder([]*schedule.IterVar{k, i, j}); err != nil {
		t.Fatal(err)
	}
	_ = i
	fillInputs(wl.Op, 7)
	p, err := Build(s, isa.Lookup(isa.X86))
	if err != nil {
		t.Fatal(err)
	}
	if p.TileCount() != 256 {
		t.Fatalf("tile count = %d want 256", p.TileCount())
	}
	if p.SpillRegisters() == 0 {
		t.Fatal("256 accumulators must spill on 16-register x86")
	}
	sink := &CountingSink{}
	Execute(p, sink, true)
	got := append([]float32(nil), wl.Op.Out.Data...)
	wl.Op.ReferenceEval()
	for i2 := range got {
		if math.Abs(float64(got[i2]-wl.Op.Out.Data[i2])) > 1e-3 {
			t.Fatalf("spilled output[%d] = %v want %v", i2, got[i2], wl.Op.Out.Data[i2])
		}
	}
	// Spilled FMAs produce extra loads+stores beyond the pure stream.
	if sink.Stores < uint64(p.TileCount()) {
		t.Fatalf("stores = %d, want at least one per output point", sink.Stores)
	}
}

// The central property: ANY random valid schedule computes the reference
// result, on every ISA.
func TestRandomSchedulesMatchReferenceProperty(t *testing.T) {
	rng := num.NewRNG(2024)
	models := []isa.Model{isa.Lookup(isa.X86), isa.Lookup(isa.ARM), isa.Lookup(isa.RISCV)}
	for trial := 0; trial < 30; trial++ {
		var wl *te.Workload
		switch trial % 3 {
		case 0:
			wl = te.MatMul(5+rng.Intn(12), 3+rng.Intn(10), 5+rng.Intn(12))
		case 1:
			wl = te.ConvGroup(te.ScaleTiny, rng.Intn(te.NumConvGroups))
		case 2:
			wl = te.DenseBiasRelu(1+rng.Intn(4), 4+rng.Intn(12), 4+rng.Intn(12))
		}
		s := randomSchedule(rng, wl.Op)
		model := models[trial%len(models)]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v (schedule %s)", trial, r, s)
				}
			}()
			runAndCompare(t, wl, s, model)
		}()
	}
}

// randomSchedule applies a random mix of splits, a random reorder, and
// random annotations, always producing a valid schedule.
func randomSchedule(rng *num.RNG, op *te.ComputeOp) *schedule.Schedule {
	s := schedule.New(op)
	// Random splits.
	nSplits := rng.Intn(3)
	for i := 0; i < nSplits; i++ {
		leaf := s.Leaves[rng.Intn(len(s.Leaves))]
		if leaf.Extent < 2 {
			continue
		}
		factor := 1 + rng.Intn(leaf.Extent)
		_, _, _ = s.Split(leaf, factor)
	}
	// Random permutation.
	perm := rng.Perm(len(s.Leaves))
	order := make([]*schedule.IterVar, len(perm))
	for i, p := range perm {
		order[i] = s.Leaves[p]
	}
	_ = s.Reorder(order)
	// Random annotations: maybe unroll a random loop, maybe vectorize the
	// innermost if spatial.
	if rng.Float64() < 0.5 {
		leaf := s.Leaves[rng.Intn(len(s.Leaves))]
		if leaf.Ann == schedule.AnnNone {
			_ = s.Unroll(leaf)
		}
	}
	lastLeaf := s.Leaves[len(s.Leaves)-1]
	if lastLeaf.Kind() == te.Spatial && lastLeaf.Ann == schedule.AnnNone && rng.Float64() < 0.5 {
		_ = s.Vectorize(lastLeaf)
	}
	return s
}

func TestBuildRejectsVectorizedReduce(t *testing.T) {
	wl := te.MatMul(8, 8, 8)
	s := schedule.New(wl.Op)
	_ = s.Vectorize(s.Leaves[2]) // k is reduce and innermost
	if _, err := Build(s, isa.Lookup(isa.X86)); err == nil {
		t.Fatal("vectorized reduction must be rejected")
	}
}

func TestRiscvDegradesVectorize(t *testing.T) {
	wl := te.MatMul(8, 8, 16)
	s := schedule.New(wl.Op)
	i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
	_ = s.Reorder([]*schedule.IterVar{i, k, j})
	_ = s.Vectorize(j)
	p, err := Build(s, isa.Lookup(isa.RISCV))
	if err != nil {
		t.Fatal(err)
	}
	sink := &CountingSink{}
	Execute(p, sink, false)
	if sink.ByClass[isa.VLoad] != 0 || sink.ByClass[isa.VFMA] != 0 {
		t.Fatal("RISC-V must not emit vector instructions")
	}
}

func TestVectorizationReducesInstructionCount(t *testing.T) {
	build := func(vec bool) *CountingSink {
		wl := te.MatMul(8, 8, 32)
		s := schedule.New(wl.Op)
		i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
		_ = s.Reorder([]*schedule.IterVar{i, k, j})
		if vec {
			_ = s.Vectorize(j)
		}
		p, err := Build(s, isa.Lookup(isa.X86))
		if err != nil {
			t.Fatal(err)
		}
		sink := &CountingSink{}
		Execute(p, sink, false)
		return sink
	}
	scalar := build(false)
	vector := build(true)
	if vector.Total >= scalar.Total {
		t.Fatalf("vectorized total %d not below scalar %d", vector.Total, scalar.Total)
	}
	if vector.ByClass[isa.VFMA] == 0 {
		t.Fatal("vectorized build emitted no VFMA")
	}
}

func TestUnrollEliminatesBranches(t *testing.T) {
	build := func(unroll bool) *CountingSink {
		wl := te.MatMul(8, 16, 8)
		s := schedule.New(wl.Op)
		k := s.Leaves[2]
		if unroll {
			_ = s.Unroll(k)
		}
		p, err := Build(s, isa.Lookup(isa.RISCV))
		if err != nil {
			t.Fatal(err)
		}
		sink := &CountingSink{}
		Execute(p, sink, false)
		return sink
	}
	rolled := build(false)
	unrolled := build(true)
	if unrolled.ByClass[isa.Branch] >= rolled.ByClass[isa.Branch] {
		t.Fatalf("unroll did not reduce branches: %d vs %d",
			unrolled.ByClass[isa.Branch], rolled.ByClass[isa.Branch])
	}
}

func TestUnrollGrowsCodeFootprint(t *testing.T) {
	build := func(unroll bool) *Program {
		wl := te.MatMul(8, 16, 8)
		s := schedule.New(wl.Op)
		if unroll {
			_ = s.Unroll(s.Leaves[2])
		}
		p, err := Build(s, isa.Lookup(isa.X86))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if build(true).CodeBytes() <= build(false).CodeBytes() {
		t.Fatal("unrolling must grow the code footprint")
	}
}

func TestHoistingReducesLoads(t *testing.T) {
	// In i,j,k order, A[i,k] and B[k,j] both depend on k (innermost): 2 loads
	// per MAC. In i,k,j order, A[i,k] hoists out of j: ~1 load per MAC.
	build := func(kInner bool) *CountingSink {
		wl := te.MatMul(8, 8, 8)
		s := schedule.New(wl.Op)
		i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
		if !kInner {
			_ = s.Reorder([]*schedule.IterVar{i, k, j})
		}
		p, err := Build(s, isa.Lookup(isa.RISCV))
		if err != nil {
			t.Fatal(err)
		}
		sink := &CountingSink{}
		Execute(p, sink, false)
		return sink
	}
	withK := build(true)
	withJ := build(false)
	if withJ.Loads >= withK.Loads {
		t.Fatalf("hoisting did not reduce loads: %d vs %d", withJ.Loads, withK.Loads)
	}
}

func TestInstructionCountClosedForm(t *testing.T) {
	// Plain 4x4x4 matmul on RISC-V, i,j,k order, no annotations:
	// preheader 8; per (i,j): guards 0; k loop: 2 loads+1 FMA+2 overhead ×4;
	// j level hoists nothing (both accesses depend on k).
	wl := te.MatMul(4, 4, 4)
	s := schedule.New(wl.Op)
	p, err := Build(s, isa.Lookup(isa.RISCV))
	if err != nil {
		t.Fatal(err)
	}
	sink := &CountingSink{}
	Execute(p, sink, false)
	// loads: 2 per MAC = 128; stores: 16; FMA: 64.
	if sink.Loads != 128 {
		t.Fatalf("loads = %d want 128", sink.Loads)
	}
	if sink.Stores != 16 {
		t.Fatalf("stores = %d want 16", sink.Stores)
	}
	if sink.ByClass[isa.FMA] != 64 {
		t.Fatalf("FMA = %d want 64", sink.ByClass[isa.FMA])
	}
	// Branches: k loop 4 per (i,j)=64, j loop 4 per i=16, i loop 4,
	// store loop: 16 total (one per j per i... store loop of tile {k? no}).
	// The tile is empty (no spatial inside reduce), so stores happen in the
	// per-(i,j) store phase: no extra loop branches.
	wantBranches := uint64(64 + 16 + 4)
	if sink.ByClass[isa.Branch] != wantBranches {
		t.Fatalf("branches = %d want %d", sink.ByClass[isa.Branch], wantBranches)
	}
}

func TestLoopExitFlags(t *testing.T) {
	wl := te.MatMul(4, 4, 4)
	s := schedule.New(wl.Op)
	p, err := Build(s, isa.Lookup(isa.RISCV))
	if err != nil {
		t.Fatal(err)
	}
	var exits uint64
	sink := sinkFunc(func(events []Event) {
		for _, e := range events {
			if e.Class == isa.Branch && e.Flags&FlagLoopExit != 0 {
				exits++
			}
		}
	})
	ExecutePerInstruction(p, sink, false)
	// k exits: 16; j exits: 4; i exits: 1.
	if exits != 21 {
		t.Fatalf("loop exits = %d want 21", exits)
	}
	// The aggregated encoding reports the same tally through bulk counts.
	agg := &CountingSink{}
	Execute(p, agg, false)
	if agg.LoopExits != 21 {
		t.Fatalf("aggregated loop exits = %d want 21", agg.LoopExits)
	}
}

type sinkFunc func([]Event)

func (f sinkFunc) Consume(events []Event)  { f(events) }
func (f sinkFunc) ConsumeLoop(_ *LoopRun)  {}
func (f sinkFunc) ConsumeCounts(_ *Counts) {}

func TestExecutionDeterminism(t *testing.T) {
	wl := te.ConvGroup(te.ScaleTiny, 2)
	s := schedule.New(wl.Op)
	p, err := Build(s, isa.Lookup(isa.ARM))
	if err != nil {
		t.Fatal(err)
	}
	a, b := &CountingSink{}, &CountingSink{}
	Execute(p, a, false)
	Execute(p, b, false)
	if a.Total != b.Total || a.Loads != b.Loads || a.Stores != b.Stores {
		t.Fatal("re-execution must be deterministic")
	}
}

func TestStaticInstrEstimateOrder(t *testing.T) {
	wl := te.ConvGroup(te.ScaleTiny, 1)
	s := schedule.New(wl.Op)
	p, err := Build(s, isa.Lookup(isa.RISCV))
	if err != nil {
		t.Fatal(err)
	}
	sink := &CountingSink{}
	Execute(p, sink, false)
	est := p.StaticInstrEstimate()
	actual := int64(sink.Total)
	ratio := float64(est) / float64(actual)
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("static estimate %d vs actual %d (ratio %.2f) out of range", est, actual, ratio)
	}
}

// TestStaticInstrEstimateChargesSpills: a register tile that spills fewer
// than half of its accumulators still pays for their reloads and
// write-backs — exactly inner·2·spillRegs/accRegs instructions over the
// same estimate without its spill term, not a per-body share truncated to
// zero.
func TestStaticInstrEstimateChargesSpills(t *testing.T) {
	wl := te.MatMul(3, 8, 4)
	s := schedule.New(wl.Op)
	i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
	if err := s.Reorder([]*schedule.IterVar{k, i, j}); err != nil {
		t.Fatal(err)
	}
	p, err := Build(s, isa.Lookup(isa.X86))
	if err != nil {
		t.Fatal(err)
	}
	if p.spillRegs <= 0 || 2*p.spillRegs >= p.accRegs {
		t.Fatalf("spillRegs %d, accRegs %d: want 0 < spillRegs < accRegs/2", p.spillRegs, p.accRegs)
	}
	inner := int64(1)
	for _, lv := range p.levels {
		inner *= int64(lv.Extent)
	}
	unspilled := *p
	unspilled.spillRegs = 0
	got := p.StaticInstrEstimate() - unspilled.StaticInstrEstimate()
	if want := inner * 2 * int64(p.spillRegs) / int64(p.accRegs); got != want || want == 0 {
		t.Fatalf("spill term = %d instructions, want %d", got, want)
	}
}

func TestPaddedLoadsAreGuarded(t *testing.T) {
	// Padding must produce guard branches and skip OOB loads: the load count
	// must be below the unguarded bound.
	wl := te.ConvGroup(te.ScaleTiny, 1) // pad 1
	s := schedule.New(wl.Op)
	p, err := Build(s, isa.Lookup(isa.RISCV))
	if err != nil {
		t.Fatal(err)
	}
	sink := &CountingSink{}
	Execute(p, sink, false)
	macs := uint64(wl.Op.MACs())
	if sink.Loads >= 2*macs {
		t.Fatalf("loads = %d, expected < %d because padded loads are skipped", sink.Loads, 2*macs)
	}
	if sink.ByClass[isa.Branch] == 0 {
		t.Fatal("no branches recorded")
	}
}

func TestProgramAccessorsSane(t *testing.T) {
	wl := te.MatMul(8, 8, 8)
	p, err := Build(schedule.New(wl.Op), isa.Lookup(isa.X86))
	if err != nil {
		t.Fatal(err)
	}
	if p.CodeBytes() == 0 {
		t.Fatal("code size must be positive")
	}
	if p.TileCount() != 1 {
		t.Fatalf("default matmul tile = %d want 1", p.TileCount())
	}
	if p.SpillRegisters() != 0 {
		t.Fatal("default matmul must not spill")
	}
}

// TestLinearIntervals holds linearBelow and linearAtLeast to their truth
// sets by brute force: an iteration lies in the returned interval exactly
// when the condition holds there. How an empty interval is written is the
// functions' own business.
func TestLinearIntervals(t *testing.T) {
	for base := -6; base <= 6; base++ {
		for bound := -6; bound <= 6; bound++ {
			for step := -3; step <= 3; step++ {
				for n := 0; n <= 6; n++ {
					blo, bhi := linearBelow(base, step, bound, n)
					alo, ahi := linearAtLeast(base, step, bound, n)
					for i := 0; i < n; i++ {
						v := base + i*step
						if in := i >= blo && i < bhi; in != (v < bound) {
							t.Errorf("linearBelow(%d, %d, %d, %d) = [%d,%d): i=%d in %v, %d < %d is %v",
								base, step, bound, n, blo, bhi, i, in, v, bound, v < bound)
						}
						if in := i >= alo && i < ahi; in != (v >= bound) {
							t.Errorf("linearAtLeast(%d, %d, %d, %d) = [%d,%d): i=%d in %v, %d >= %d is %v",
								base, step, bound, n, alo, ahi, i, in, v, bound, v >= bound)
						}
					}
				}
			}
		}
	}
}
