package lower_test

// Differential test of the block-aggregated event encoding: Execute (run
// events + bulk counts) must produce bit-identical simulator statistics and
// timing-model cycles to ExecutePerInstruction (one event per executed
// instruction) — the aggregation is an encoding change, not a model change.

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// diffCase builds one workload+schedule pair; a fresh workload per build
// keeps tensor placement independent across encodings.
type diffCase struct {
	name  string
	build func(t *testing.T) (*te.Workload, *schedule.Schedule)
}

func diffCases() []diffCase {
	return []diffCase{
		{"matmul-default", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.MatMul(12, 9, 11)
			return wl, schedule.New(wl.Op)
		}},
		{"matmul-tiled-vectorized", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
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
			return wl, s
		}},
		{"matmul-unrolled", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.MatMul(8, 6, 8)
			s := schedule.New(wl.Op)
			_, ki, _ := s.Split(s.Leaves[2], 3)
			_ = s.Unroll(ki)
			return wl, s
		}},
		{"conv-unrolled-innermost", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// A padded body whose innermost loop (kw, extent 3) is unrolled.
			wl := te.ConvGroup(te.ScaleTiny, 1)
			s := schedule.New(wl.Op)
			if err := s.Unroll(s.Leaves[len(s.Leaves)-1]); err != nil {
				t.Fatal(err)
			}
			return wl, s
		}},
		{"matmul-split-tail", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// 10 split by 3 and 7 split by 4 both leave guarded tails.
			wl := te.MatMul(10, 7, 9)
			s := schedule.New(wl.Op)
			_, _, _ = s.Split(s.Leaves[0], 3)
			_, _, _ = s.Split(s.Leaves[2], 4)
			return wl, s
		}},
		{"matmul-spilled", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.MatMul(16, 8, 16)
			s := schedule.New(wl.Op)
			i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
			if err := s.Reorder([]*schedule.IterVar{k, i, j}); err != nil {
				t.Fatal(err)
			}
			return wl, s
		}},
		{"conv-padded-default", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.ConvGroup(te.ScaleTiny, 1) // stride 1, pad 1
			return wl, schedule.New(wl.Op)
		}},
		{"conv-padded-vectorized", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.ConvGroup(te.ScaleTiny, 1)
			s := schedule.New(wl.Op)
			leaves := s.Leaves
			ow := leaves[3]
			order := []*schedule.IterVar{leaves[0], leaves[1], leaves[2], leaves[4], leaves[5], leaves[6], ow}
			if err := s.Reorder(order); err != nil {
				t.Fatal(err)
			}
			_ = s.Vectorize(ow)
			return wl, s
		}},
		{"matmul-reduce-3deep", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// k split twice gives a 3-deep all-reduce tail (ko, ki, kii):
			// the grandparent-of-inner path with its 3D nest-box
			// aggregation, including guarded split tails (10 % 4 != 0).
			wl := te.MatMul(9, 7, 10)
			s := schedule.New(wl.Op)
			_, ki, err := s.Split(s.Leaves[2], 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Split(ki, 2); err != nil {
				t.Fatal(err)
			}
			return wl, s
		}},
		{"conv-strided-3deep", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// Stride-2 padded conv: boundary rows clip kh/kw asymmetrically,
			// so 3D boxes, 2D rectangles and per-row segment fallbacks all
			// fire within one execution.
			wl := te.ConvGroup(te.ScaleTiny, 2)
			return wl, schedule.New(wl.Op)
		}},
		{"dense-split-reduce-3deep", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// DenseBiasRelu with the reduction split: reduce levels carry a
			// guard on the split tail while spatial guards sit above.
			wl := te.DenseBiasRelu(3, 17, 5)
			s := schedule.New(wl.Op)
			if _, _, err := s.Split(s.Leaves[2], 5); err != nil {
				t.Fatal(err)
			}
			return wl, s
		}},
	}
}

// TestBlockAggregationTinyCacheBitIdentical re-runs every differential case
// against a deliberately tiny L1D (8 sets × 1 way): working sets overflow
// sets constantly, so the resident fast path rejects most spans
// mid-execution and the scalar replay evicts — the mixed fast/slow
// interleaving must still be bit-identical to the per-instruction stream.
func TestBlockAggregationTinyCacheBitIdentical(t *testing.T) {
	tiny := cache.HierarchyConfig{
		L1D: cache.Config{Name: "L1D", SizeBytes: 8 * 64, LineBytes: 64, Assoc: 1},
		L1I: cache.Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Assoc: 2},
		L2:  cache.Config{Name: "L2", SizeBytes: 8 * 1024, LineBytes: 64, Assoc: 2},
	}
	runOne := func(t *testing.T, tc diffCase, exec func(*lower.Program, lower.Sink, bool)) *sim.Stats {
		_, s := tc.build(t)
		prog, err := lower.Build(s, isa.Lookup(isa.RISCV))
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		m, err := sim.New(isa.RISCV, tiny)
		if err != nil {
			t.Fatal(err)
		}
		exec(prog, m, false)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("cache invariants: %v", err)
		}
		return m.Stats()
	}
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := runOne(t, tc, lower.ExecutePerInstruction)
			agg := runOne(t, tc, lower.Execute)
			ref.SimWallSeconds, agg.SimWallSeconds = 0, 0
			ref.SinkEvents, agg.SinkEvents = 0, 0
			if !reflect.DeepEqual(ref, agg) {
				t.Errorf("sim stats differ:\nper-instr: %+v\naggregated: %+v", ref, agg)
			}
		})
	}
}

// runBoth executes one case with one encoding on a fresh timing model and
// returns the simulator statistics it collected beside its cycles.
func runBoth(t *testing.T, tc diffCase, arch isa.Arch, compute bool,
	exec func(*lower.Program, lower.Sink, bool)) (*sim.Stats, *hw.Machine) {
	t.Helper()
	_, s := tc.build(t)
	prog, err := lower.Build(s, isa.Lookup(arch))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	hwM, err := hw.NewMachine(hw.Lookup(arch))
	if err != nil {
		t.Fatal(err)
	}
	exec(prog, hwM, compute)
	st := hwM.Stats()
	for _, lv := range st.Caches {
		if err := lv.Stats.Check(); err != nil {
			t.Fatalf("cache invariants: %s: %v", lv.Name, err)
		}
	}
	return st, hwM
}

// TestBlockAggregationRandomSchedules fuzzes the same bit-identity property
// over random split/reorder/annotation mixes: the executor's fast paths
// (segmented spans, parent hoisting, per-iteration strength reduction) are
// gated on schedule shape, so random schedules exercise gate combinations
// the hand-picked cases miss.
func TestBlockAggregationRandomSchedules(t *testing.T) {
	rng := num.NewRNG(404)
	for trial := 0; trial < 60; trial++ {
		var wl func() *te.Workload
		switch trial % 3 {
		case 0:
			m, n, k := 5+rng.Intn(12), 3+rng.Intn(10), 5+rng.Intn(12)
			wl = func() *te.Workload { return te.MatMul(m, n, k) }
		case 1:
			g := rng.Intn(te.NumConvGroups)
			wl = func() *te.Workload { return te.ConvGroup(te.ScaleTiny, g) }
		default:
			b, in, out := 1+rng.Intn(4), 4+rng.Intn(12), 4+rng.Intn(12)
			wl = func() *te.Workload { return te.DenseBiasRelu(b, in, out) }
		}
		steps := randomScheduleSteps(rng, wl())
		arch := isa.Archs()[trial%3]
		tc := diffCase{name: "random", build: func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			w := wl()
			s := schedule.New(w.Op)
			steps(s)
			return w, s
		}}
		refStats, refHW := runBoth(t, tc, arch, false, lower.ExecutePerInstruction)
		aggStats, aggHW := runBoth(t, tc, arch, false, lower.Execute)
		refStats.SimWallSeconds, aggStats.SimWallSeconds = 0, 0
		refStats.SinkEvents, aggStats.SinkEvents = 0, 0
		if !reflect.DeepEqual(refStats, aggStats) {
			t.Fatalf("trial %d (%s): sim stats differ:\nper-instr: %+v\naggregated: %+v",
				trial, arch, refStats, aggStats)
		}
		if refHW.Cycles() != aggHW.Cycles() || refHW.Mispredicts() != aggHW.Mispredicts() {
			t.Fatalf("trial %d (%s): hw cycles/mispredicts differ", trial, arch)
		}
	}
}

// randomScheduleSteps draws a random schedule transformation once and
// returns a closure replaying it on a fresh schedule (both encodings must
// build the identical schedule).
func randomScheduleSteps(rng *num.RNG, wl *te.Workload) func(*schedule.Schedule) {
	type splitStep struct{ leaf, factor int }
	var splits []splitStep
	probe := schedule.New(wl.Op)
	nSplits := rng.Intn(3)
	for i := 0; i < nSplits; i++ {
		li := rng.Intn(len(probe.Leaves))
		leaf := probe.Leaves[li]
		if leaf.Extent < 2 {
			continue
		}
		factor := 1 + rng.Intn(leaf.Extent)
		if _, _, err := probe.Split(leaf, factor); err == nil {
			splits = append(splits, splitStep{li, factor})
		}
	}
	perm := rng.Perm(len(probe.Leaves))
	unrollIdx := -1
	if rng.Float64() < 0.5 {
		unrollIdx = rng.Intn(len(perm))
	}
	vectorize := rng.Float64() < 0.5
	return func(s *schedule.Schedule) {
		for _, sp := range splits {
			_, _, _ = s.Split(s.Leaves[sp.leaf], sp.factor)
		}
		order := make([]*schedule.IterVar, len(perm))
		for i, p := range perm {
			order[i] = s.Leaves[p]
		}
		_ = s.Reorder(order)
		if unrollIdx >= 0 {
			if leaf := s.Leaves[unrollIdx]; leaf.Ann == schedule.AnnNone {
				_ = s.Unroll(leaf)
			}
		}
		last := s.Leaves[len(s.Leaves)-1]
		if vectorize && last.Kind() == te.Spatial && last.Ann == schedule.AnnNone {
			_ = s.Vectorize(last)
		}
	}
}

func TestBlockAggregationBitIdentical(t *testing.T) {
	for _, arch := range isa.Archs() {
		for _, tc := range diffCases() {
			for _, compute := range []bool{false, true} {
				name := string(arch) + "/" + tc.name
				if compute {
					name += "/computeValues"
				}
				t.Run(name, func(t *testing.T) {
					refStats, refHW := runBoth(t, tc, arch, compute, lower.ExecutePerInstruction)
					aggStats, aggHW := runBoth(t, tc, arch, compute, lower.Execute)

					// The aggregated encoding must deliver strictly fewer
					// protocol events; the statistics themselves are compared
					// with the diagnostics blanked.
					if aggStats.SinkEvents >= refStats.SinkEvents {
						t.Errorf("aggregation did not reduce events: %d vs %d",
							aggStats.SinkEvents, refStats.SinkEvents)
					}
					refStats.SimWallSeconds, aggStats.SimWallSeconds = 0, 0
					refStats.SinkEvents, aggStats.SinkEvents = 0, 0
					if !reflect.DeepEqual(refStats, aggStats) {
						t.Errorf("sim stats differ:\nper-instr: %+v\naggregated: %+v", refStats, aggStats)
					}
					if rc, ac := refHW.Cycles(), aggHW.Cycles(); rc != ac {
						t.Errorf("hw cycles differ: per-instr %v vs aggregated %v", rc, ac)
					}
					if rm, am := refHW.Mispredicts(), aggHW.Mispredicts(); rm != am {
						t.Errorf("hw mispredicts differ: %d vs %d", rm, am)
					}
				})
			}
		}
	}
}

// TestCountingSinkTakesFetchRuns checks the CountingSink's side of the
// fetch-run channel: it models no L1I, so every multi-I-line box aggregates
// from its first row. Against the same sink behind a three-method wrapper
// the tallies must be equal and the protocol events fewer — on the ISAs
// whose 4-byte instructions push the conv loop nest across an I-line.
func TestCountingSinkTakesFetchRuns(t *testing.T) {
	for _, arch := range []isa.Arch{isa.X86, isa.ARM} {
		wl := te.ConvGroup(te.ScaleTiny, 1)
		prog, err := lower.Build(schedule.New(wl.Op), isa.Lookup(arch))
		if err != nil {
			t.Fatal(err)
		}
		var with, without lower.CountingSink
		lower.Execute(prog, &with, false)
		lower.Execute(prog, struct{ lower.Sink }{&without}, false)
		if with.Events >= without.Events {
			t.Errorf("%s: %d events with the channel, %d without: no box aggregated", arch, with.Events, without.Events)
		}
		with.Events, without.Events = 0, 0
		if with != without {
			t.Errorf("%s: tallies differ:\nwith:    %+v\nwithout: %+v", arch, with, without)
		}
	}
}
