package runner

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

func matmulFactory() *te.Workload { return te.MatMul(8, 8, 8) }

func defaultInput() MeasureInput {
	return MeasureInput{Factory: matmulFactory, Steps: nil}
}

func splitInput(factor int) MeasureInput {
	wl := te.MatMul(8, 8, 8)
	s := schedule.New(wl.Op)
	_, _, _ = s.Split(s.Leaves[2], factor)
	return MeasureInput{Factory: matmulFactory, Steps: s.Steps}
}

func TestLocalBuilderBuilds(t *testing.T) {
	b := LocalBuilder{Arch: isa.X86}
	res := b.Build([]MeasureInput{defaultInput(), splitInput(4)})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("build %d: %v", i, r.Err)
		}
		if r.Prog == nil {
			t.Fatalf("build %d: nil program", i)
		}
	}
}

func TestLocalBuilderReportsBadSteps(t *testing.T) {
	b := LocalBuilder{Arch: isa.X86}
	bad := MeasureInput{Factory: matmulFactory,
		Steps: []schedule.Step{{Kind: "split", Leaf: 99, Factor: 2}}}
	res := b.Build([]MeasureInput{bad, defaultInput()})
	if res[0].Err == nil {
		t.Fatal("bad steps must fail the build")
	}
	if res[1].Err != nil {
		t.Fatal("good candidate must still build")
	}
}

func TestLocalRunnerMeasures(t *testing.T) {
	prof := hw.Lookup(isa.RISCV)
	b := LocalBuilder{Arch: isa.RISCV}
	inputs := []MeasureInput{defaultInput(), splitInput(4)}
	builds := b.Build(inputs)
	r := NewLocalRunner(prof, hw.DefaultMeasureOptions(), num.NewRNG(1))
	if r.NParallel() != 1 {
		t.Fatal("native hardware must be sequential")
	}
	res := r.Run(inputs, builds)
	for i, m := range res {
		if m.Err != nil {
			t.Fatalf("measure %d: %v", i, m.Err)
		}
		if m.TimeSec <= 0 || m.Score != m.TimeSec {
			t.Fatalf("measure %d: bad time/score %+v", i, m)
		}
	}
	// Wall clock must include 2 candidates × 15 reps × 1 s cooldown.
	if r.WallClockSec() < 30 {
		t.Fatalf("wall clock %v must include cooldowns", r.WallClockSec())
	}
}

func TestLocalRunnerPropagatesBuildErrors(t *testing.T) {
	prof := hw.Lookup(isa.ARM)
	r := NewLocalRunner(prof, hw.DefaultMeasureOptions(), num.NewRNG(1))
	res := r.Run([]MeasureInput{defaultInput()}, []BuildResult{{Err: errors.New("boom")}})
	if res[0].Err == nil || !math.IsInf(res[0].Score, 1) {
		t.Fatalf("build error must poison the score: %+v", res[0])
	}
}

func TestSimulatorRunnerCollectsStats(t *testing.T) {
	b := LocalBuilder{Arch: isa.ARM}
	inputs := []MeasureInput{defaultInput(), splitInput(2), splitInput(4)}
	builds := b.Build(inputs)
	r := NewSimulatorRunner(hw.Lookup(isa.ARM).Caches, 3, nil)
	if r.NParallel() != 3 {
		t.Fatal("n_parallel not respected")
	}
	res := r.Run(inputs, builds)
	for i, m := range res {
		if m.Err != nil {
			t.Fatalf("sim %d: %v", i, m.Err)
		}
		if m.Stats == nil || m.Stats.Total == 0 {
			t.Fatalf("sim %d: missing stats", i)
		}
		if m.Score != 0 {
			t.Fatalf("nil scorer must leave score 0, got %v", m.Score)
		}
	}
}

type fixedScorer struct{ calls int32 }

func (f *fixedScorer) Score(st *sim.Stats) float64 {
	atomic.AddInt32(&f.calls, 1)
	return float64(st.Total)
}

func TestSimulatorRunnerScores(t *testing.T) {
	b := LocalBuilder{Arch: isa.X86}
	inputs := []MeasureInput{defaultInput(), splitInput(4)}
	builds := b.Build(inputs)
	sc := &fixedScorer{}
	r := NewSimulatorRunner(hw.Lookup(isa.X86).Caches, 2, sc)
	res := r.Run(inputs, builds)
	if n := atomic.LoadInt32(&sc.calls); n != 2 {
		t.Fatalf("scorer called %d times want 2", n)
	}
	for _, m := range res {
		if m.Score <= 0 {
			t.Fatalf("score missing: %+v", m)
		}
	}
}

func TestSimulatorRunnerParallelMatchesSequential(t *testing.T) {
	b := LocalBuilder{Arch: isa.RISCV}
	var inputs []MeasureInput
	for f := 1; f <= 8; f++ {
		inputs = append(inputs, splitInput(f))
	}
	builds := b.Build(inputs)
	seq := NewSimulatorRunner(hw.Lookup(isa.RISCV).Caches, 1, nil).Run(inputs, builds)
	par := NewSimulatorRunner(hw.Lookup(isa.RISCV).Caches, 8, nil).Run(inputs, builds)
	for i := range seq {
		if seq[i].Stats.Total != par[i].Stats.Total {
			t.Fatalf("candidate %d: parallel stats diverge", i)
		}
	}
}

func TestRegistryOverrideSemantics(t *testing.T) {
	defer UnregisterFunc("test.fn")
	fn := func(p *lower.Program) (*sim.Stats, error) { return &sim.Stats{Total: 42}, nil }
	if err := RegisterFunc("test.fn", fn, false); err != nil {
		t.Fatal(err)
	}
	if err := RegisterFunc("test.fn", fn, false); err == nil {
		t.Fatal("re-registration without override must fail")
	}
	if err := RegisterFunc("test.fn", fn, true); err != nil {
		t.Fatalf("override must succeed: %v", err)
	}
	got, ok := LookupFunc("test.fn")
	if !ok {
		t.Fatal("lookup failed")
	}
	st, _ := got(nil)
	if st.Total != 42 {
		t.Fatal("wrong function resolved")
	}
}

func TestSimulatorRunnerUsesRegistryOverride(t *testing.T) {
	defer UnregisterFunc(SimulatorRunKey)
	marker := &sim.Stats{Total: 7777}
	err := RegisterFunc(SimulatorRunKey, func(p *lower.Program) (*sim.Stats, error) {
		return marker, nil
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	b := LocalBuilder{Arch: isa.X86}
	inputs := []MeasureInput{defaultInput()}
	builds := b.Build(inputs)
	res := NewSimulatorRunner(hw.Lookup(isa.X86).Caches, 1, nil).Run(inputs, builds)
	if res[0].Stats.Total != 7777 {
		t.Fatal("registry override was not used (Listing 4 semantics broken)")
	}
}

func TestRunParallelCoversAll(t *testing.T) {
	var mask [100]int32
	Parallel(7, 100, func(i int) { atomic.AddInt32(&mask[i], 1) })
	for i, v := range mask {
		if v != 1 {
			t.Fatalf("index %d executed %d times", i, v)
		}
	}
	Parallel(0, 0, func(int) {}) // degenerate: no panic
}

func TestParallelCtxCoversAllWhenNotCanceled(t *testing.T) {
	var mask [50]int32
	if err := ParallelCtx(context.Background(), 4, 50, func(i int) {
		atomic.AddInt32(&mask[i], 1)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range mask {
		if v != 1 {
			t.Fatalf("index %d executed %d times", i, v)
		}
	}
	if err := ParallelCtx(nil, 2, 3, func(int) {}); err != nil {
		t.Fatalf("nil ctx must behave like Parallel: %v", err)
	}
}

func TestParallelCtxStopsDispatchOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ParallelCtx(ctx, 2, 1000, func(i int) {
			atomic.AddInt32(&started, 1)
			<-release
		})
	}()
	// Wait until both workers hold an index, then cancel: no further
	// indices may be dispatched and the call must return ctx.Err() after
	// the in-flight ones finish.
	for atomic.LoadInt32(&started) < 2 {
		runtime.Gosched()
	}
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 2 workers were in flight; at most a few more could have been queued
	// in the dispatch channel before cancel won the select.
	if n := atomic.LoadInt32(&started); n > 5 {
		t.Fatalf("%d indices dispatched after cancel", n)
	}
}
