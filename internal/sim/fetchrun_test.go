package sim_test

// Full-state differential of the fetch-run channel: the same program goes
// into a sim.Machine directly, which offers the channel, and into an
// identical machine behind a wrapper that shows only the three-method
// lower.Sink, which keeps multi-I-line nest boxes on the ordered path. The
// two must end in the same complete cache state — every line, LRU stamp,
// MRU slot and stamp counter of every level — and the timing model, with
// the channel and behind the same wrapper, must count the same cycles.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ansor"
	"repro/internal/autotvm"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
	"repro/internal/tensor"
)

// threeChannel hides everything of a sink but lower.Sink.
type threeChannel struct{ lower.Sink }

// candidate is one schedule of one workload, as the corpus generators of
// the repository benchmark propose them.
type candidate struct {
	name    string
	factory func() *te.Workload
	steps   []schedule.Step
}

// corpusCandidates draws, per workload, the default schedule, one loop-order
// permutation, AutoTVM template samples and Ansor sketches.
func corpusCandidates(t *testing.T, rng *num.RNG) []candidate {
	t.Helper()
	type workload struct {
		name    string
		factory func() *te.Workload
		sampled bool
	}
	var wls []workload
	for g := 0; g < te.NumConvGroups; g++ {
		g := g
		wls = append(wls, workload{fmt.Sprintf("conv_tiny_%d", g),
			func() *te.Workload { return te.ConvGroup(te.ScaleTiny, g) }, true})
	}
	wls = append(wls,
		workload{"matmul_16", func() *te.Workload { return te.MatMul(16, 16, 16) }, true},
		// The ScaleSmall rows carry the long multi-line boxes.
		workload{"conv_small_1", func() *te.Workload { return te.ConvGroup(te.ScaleSmall, 1) }, false},
		workload{"matmul_64", func() *te.Workload { return te.MatMul(64, 64, 64) }, false})
	var out []candidate
	for _, wl := range wls {
		add := func(kind string, steps []schedule.Step) {
			out = append(out, candidate{wl.name + "/" + kind, wl.factory, steps})
		}
		add("default", nil)
		if !wl.sampled {
			continue
		}
		s := schedule.New(wl.factory().Op)
		perm := num.NthPerm(1+rng.Intn(1<<20), len(s.Leaves))
		order := make([]*schedule.IterVar, len(perm))
		for i, p := range perm {
			order[i] = s.Leaves[p]
		}
		if err := s.Reorder(order); err != nil {
			t.Fatal(err)
		}
		add("perm", s.Steps)
		tmpl, err := autotvm.TemplateFor(wl.factory())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			w := wl.factory()
			cs, err := tmpl.Space(w)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := tmpl.Apply(w, cs, cs.Sample(rng))
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("autotvm%d", i), ts.Steps)
		}
		sketches, err := ansor.RandomSketches(wl.factory, 6, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		for i, sk := range sketches {
			add(fmt.Sprintf("ansor%d", i), sk.Steps)
		}
	}
	return out
}

func TestFetchRunChannelFullStateDifferential(t *testing.T) {
	// Beside each ISA's own geometry, one with a 1 KiB 2-way L1I: code
	// lines get evicted between boxes, so probes fail mid-run too.
	tight := func(c cache.HierarchyConfig) cache.HierarchyConfig {
		c.L1I = cache.Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Assoc: 2}
		return c
	}
	cands := corpusCandidates(t, num.NewRNG(15))
	var runsTaken uint64
	for _, arch := range isa.Archs() {
		prof := hw.Lookup(arch)
		for _, c := range cands {
			s, err := schedule.Replay(c.factory().Op, c.steps)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			prog, err := lower.Build(s, isa.Lookup(arch))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, caches := range []cache.HierarchyConfig{prof.Caches, tight(prof.Caches)} {
				newSim := func() *sim.Machine {
					m, err := sim.New(arch, caches)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				with, without := newSim(), newSim()
				lower.Execute(prog, with, false)
				lower.Execute(prog, threeChannel{without}, false)
				if err := with.Hierarchy().DiffState(without.Hierarchy()); err != nil {
					t.Fatalf("%s %s (L1I %d B): cache state with the channel differs: %v",
						arch, c.name, caches.L1I.SizeBytes, err)
				}
				a, b := with.Stats(), without.Stats()
				if a.SinkEvents > b.SinkEvents {
					t.Errorf("%s %s: channel raised protocol events %d -> %d", arch, c.name, b.SinkEvents, a.SinkEvents)
				}
				runsTaken += b.SinkEvents - a.SinkEvents
				a.SinkEvents, b.SinkEvents = 0, 0
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s %s: stats differ:\nwith:    %+v\nwithout: %+v", arch, c.name, a, b)
				}
			}

			// The timing model drives a simulator of its own and reads its
			// latencies off that simulator's misses: with the channel and
			// without it, cycles and statistics must agree.
			newHW := func() *hw.Machine {
				h, err := hw.NewMachine(prof)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			hwWith, hwWithout := newHW(), newHW()
			lower.Execute(prog, hwWith, false)
			lower.Execute(prog, threeChannel{hwWithout}, false)
			if hwWith.Cycles() != hwWithout.Cycles() || hwWith.Mispredicts() != hwWithout.Mispredicts() {
				t.Fatalf("%s %s: hw cycles %v / mispredicts %d with the channel, %v / %d without",
					arch, c.name, hwWith.Cycles(), hwWith.Mispredicts(), hwWithout.Cycles(), hwWithout.Mispredicts())
			}
			a, b := hwWith.Stats(), hwWithout.Stats()
			a.SinkEvents, b.SinkEvents = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s %s: statistics under the timing model differ:\nwith:    %+v\nwithout: %+v", arch, c.name, a, b)
			}
		}
	}
	if runsTaken == 0 {
		t.Fatal("no candidate shipped a fetch run: the differential compared the ordered path with itself")
	}
	t.Logf("%d candidates x 3 ISAs; protocol events saved by fetch runs: %d", len(cands), runsTaken)
}

// windowSpy is a sim.Machine that counts the windowed sites reaching it on
// each loop channel.
type windowSpy struct {
	*sim.Machine
	onLoop, onPrologue int
}

// windowed counts the sites of run that carry an active window.
func windowed(run *lower.LoopRun) int {
	n := 0
	for _, st := range run.Sites {
		if st.Hi > 0 || st.RowHi > 0 {
			n++
		}
	}
	return n
}

func (s *windowSpy) ConsumeLoop(run *lower.LoopRun) {
	s.onLoop += windowed(run)
	s.Machine.ConsumeLoop(run)
}

func (s *windowSpy) ConsumePrologueRun(run *lower.LoopRun) {
	s.onPrologue += windowed(run)
	s.Machine.ConsumePrologueRun(run)
}

// TestWindowChannelSplit holds the three-method lower.Sink to the stream it
// had before sites had windows: windowed boxes go out on the prologue
// channel only, so a sink behind the threeChannel wrapper, like the
// repository benchmark's accessSink, never receives a windowed site, and
// it still ends in the complete cache state, and the timing model with the
// cycles, of the sink that takes every channel.
func TestWindowChannelSplit(t *testing.T) {
	cands := corpusCandidates(t, num.NewRNG(49))
	var full int
	for _, arch := range isa.Archs() {
		prof := hw.Lookup(arch)
		for _, c := range cands {
			s, err := schedule.Replay(c.factory().Op, c.steps)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			prog, err := lower.Build(s, isa.Lookup(arch))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var spies [2]*windowSpy
			for i := range spies {
				m, err := sim.New(arch, prof.Caches)
				if err != nil {
					t.Fatal(err)
				}
				spies[i] = &windowSpy{Machine: m}
			}
			lower.Execute(prog, spies[0], false)
			lower.Execute(prog, threeChannel{spies[1]}, false)
			if spies[0].onLoop > 0 || spies[1].onLoop > 0 {
				t.Fatalf("%s %s: windowed sites on the three-method ConsumeLoop: %d with every channel, %d behind the wrapper",
					arch, c.name, spies[0].onLoop, spies[1].onLoop)
			}
			full += spies[0].onPrologue
			if err := spies[0].Hierarchy().DiffState(spies[1].Hierarchy()); err != nil {
				t.Fatalf("%s %s: cache state with windows differs from the three-method stream: %v", arch, c.name, err)
			}
			var hs [2]*hw.Machine
			for i := range hs {
				if hs[i], err = hw.NewMachine(prof); err != nil {
					t.Fatal(err)
				}
			}
			lower.Execute(prog, hs[0], false)
			lower.Execute(prog, threeChannel{hs[1]}, false)
			if hs[0].Cycles() != hs[1].Cycles() || hs[0].Mispredicts() != hs[1].Mispredicts() {
				t.Fatalf("%s %s: hw cycles %v / mispredicts %d with windows, %v / %d behind the wrapper",
					arch, c.name, hs[0].Cycles(), hs[0].Mispredicts(), hs[1].Cycles(), hs[1].Mispredicts())
			}
		}
	}
	if full == 0 {
		t.Fatal("no candidate shipped a windowed site: the split compared the three-method stream with itself")
	}
	t.Logf("%d candidates x 3 ISAs; windowed sites on the prologue channel: %d", len(cands), full)
}

// fatMatMul is te.MatMul with flops arithmetic operations per reduction
// point: the body's size in code bytes is the knob that moves a nest box's
// loop-overhead pairs across I-line boundaries.
func fatMatMul(n, l, m, flops int) *te.Workload {
	a := tensor.New("A", tensor.Shape{n, l})
	b := tensor.New("B", tensor.Shape{l, m})
	c := tensor.New("C", tensor.Shape{n, m})
	i := &te.Axis{Name: "i", Extent: n}
	j := &te.Axis{Name: "j", Extent: m}
	k := &te.Axis{Name: "k", Extent: l}
	body := te.Mul(
		&te.Access{Tensor: a, Index: []te.Affine{te.AxisIdx(i), te.AxisIdx(k)}},
		&te.Access{Tensor: b, Index: []te.Affine{te.AxisIdx(k), te.AxisIdx(j)}},
	)
	for f := 1; f < flops; f++ {
		body = te.Add(body, te.ConstF{Val: 1})
	}
	op := te.NewComputeOp("matmul", c, []*te.Axis{i, j}, []*te.Axis{k},
		[]te.Affine{te.AxisIdx(i), te.AxisIdx(j)}, 0, body, nil, []*tensor.Tensor{a, b})
	return &te.Workload{Kernel: "matmul", Key: fmt.Sprintf("fatmatmul_%d", flops), Op: op}
}

// TestFetchRunBoxAlignmentSweep grows the loop body one instruction at a
// time, so that every part of a 2D and a 3D box — the inner iteration, the
// parent's overhead pair, the grandparent's pair — in turn straddles an
// I-line boundary, sits just before one and just after one, on 3- and
// 4-byte ISAs. With the channel, without it, and on the per-instruction
// reference, the complete cache state must agree.
func TestFetchRunBoxAlignmentSweep(t *testing.T) {
	for _, arch := range isa.Archs() {
		caches := hw.Lookup(arch).Caches
		for flops := 1; flops <= 48; flops++ {
			for _, splits := range [][]int{{4}, {4, 2}} { // ko×ki boxes; ko×ki×kii boxes
				s := schedule.New(fatMatMul(9, 12, 7, flops).Op)
				leaf := s.Leaves[2]
				for _, f := range splits {
					_, inner, err := s.Split(leaf, f)
					if err != nil {
						t.Fatal(err)
					}
					leaf = inner
				}
				prog, err := lower.Build(s, isa.Lookup(arch))
				if err != nil {
					t.Fatal(err)
				}
				var ms [3]*sim.Machine
				for i := range ms {
					if ms[i], err = sim.New(arch, caches); err != nil {
						t.Fatal(err)
					}
				}
				lower.Execute(prog, ms[0], false)
				lower.Execute(prog, threeChannel{ms[1]}, false)
				lower.ExecutePerInstruction(prog, ms[2], false)
				for i, other := range []string{"the ordered path", "the per-instruction reference"} {
					if err := ms[0].Hierarchy().DiffState(ms[i+1].Hierarchy()); err != nil {
						t.Fatalf("%s flops=%d splits=%v: fetch runs differ from %s: %v", arch, flops, splits, other, err)
					}
				}
			}
		}
	}
}

// spySink is a sim.Machine that logs what reaches it on the fetch side: each
// probe with its answer, each run, and each ordered EvFetch event.
type spySink struct {
	*sim.Machine
	log           []string
	probes, runs  int
	orderedFetchs int
}

func (s *spySink) Consume(events []lower.Event) {
	for i := range events {
		if events[i].Kind == lower.EvFetch {
			s.orderedFetchs++
			if n := len(s.log); n == 0 || s.log[n-1] != "fetch" {
				s.log = append(s.log, "fetch") // consecutive ones logged once
			}
		}
	}
	s.Machine.Consume(events)
}

func (s *spySink) FetchResident(lines []uint64) bool {
	ok := s.Machine.FetchResident(lines)
	s.probes++
	s.log = append(s.log, fmt.Sprintf("probe:%v", ok))
	return ok
}

func (s *spySink) ConsumeFetchRun(total uint64, lines, lastOrdinals []uint64) {
	s.runs++
	s.log = append(s.log, "run")
	s.Machine.ConsumeFetchRun(total, lines, lastOrdinals)
}

func newSpy(t *testing.T, arch isa.Arch) *spySink {
	t.Helper()
	m, err := sim.New(arch, hw.Lookup(arch).Caches)
	if err != nil {
		t.Fatal(err)
	}
	return &spySink{Machine: m}
}

// splitMatMul lowers fatMatMul with k split by 4 and then 2 for x86: a
// ko×ki×kii nest of plain reduce loops, executed as 3D boxes.
func splitMatMul(t *testing.T, flops int) *lower.Program {
	t.Helper()
	s := schedule.New(fatMatMul(9, 12, 7, flops).Op)
	_, ki, err := s.Split(s.Leaves[2], 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Split(ki, 2); err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Build(s, isa.Lookup(isa.X86))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFetchRunColdCodeRetries pins the cold start of a multi-line box. The
// first plane's probe fails, so the plane runs through the row machinery;
// there the first row's probe fails too and the row runs ordered, fetching
// the code with EvFetch events where its misses belong in the stream; the
// next row's probe then succeeds and the rest of the plane ships as a run,
// and from the second plane on whole planes do. No probe fails once the code
// is in, and nothing of the cold row is lost or doubled.
func TestFetchRunColdCodeRetries(t *testing.T) {
	prog := splitMatMul(t, 20) // 24 instructions an iteration: two I-lines
	spy := newSpy(t, isa.X86)
	lower.Execute(prog, spy, false)
	cold := 0
	for cold < len(spy.log) && spy.log[cold] != "probe:false" {
		cold++
	}
	want := []string{"probe:false", "probe:false", "fetch", "probe:true", "run", "probe:true", "run"}
	if len(spy.log) < cold+len(want) || !reflect.DeepEqual(spy.log[cold:cold+len(want)], want) {
		t.Fatalf("cold start of the first box: %v, want %v after the preamble", spy.log, want)
	}
	for _, e := range spy.log[cold+len(want):] {
		if e == "probe:false" {
			t.Fatalf("a probe failed after the code was fetched: %v", spy.log)
		}
	}
	if spy.runs != spy.probes-2 {
		t.Fatalf("%d runs for %d probes, two of them cold", spy.runs, spy.probes)
	}
	ref := newSpy(t, isa.X86)
	lower.ExecutePerInstruction(prog, ref.Machine, false)
	if err := spy.Hierarchy().DiffState(ref.Hierarchy()); err != nil {
		t.Fatalf("state after the cold retries differs from the per-instruction reference: %v", err)
	}
}

// TestFetchRunOversizeBoxFallsBack gives a box more code lines than a run
// carries. It must stay on the ordered path whole — never probed, never
// shipped as a run over the first lines only — while a box just inside the
// capacity still aggregates.
func TestFetchRunOversizeBoxFallsBack(t *testing.T) {
	inside, oversize := newSpy(t, isa.X86), newSpy(t, isa.X86)
	lower.Execute(splitMatMul(t, 100), inside, false) // 108 instructions: 432 B, at most 8 lines
	if inside.runs == 0 {
		t.Fatal("a box of at most 8 code lines must ship fetch runs")
	}
	prog := splitMatMul(t, 140) // 148 instructions: 592 B, at least 10 lines
	lower.Execute(prog, oversize, false)
	if oversize.probes != 0 || oversize.runs != 0 {
		t.Fatalf("oversize box: %d probes, %d runs, want none", oversize.probes, oversize.runs)
	}
	ordered := newSpy(t, isa.X86)
	lower.Execute(prog, threeChannel{ordered}, false)
	if oversize.orderedFetchs != ordered.orderedFetchs {
		t.Fatalf("oversize box delivered %d ordered fetches, the three-channel path %d",
			oversize.orderedFetchs, ordered.orderedFetchs)
	}
	if err := oversize.Hierarchy().DiffState(ordered.Hierarchy()); err != nil {
		t.Fatal(err)
	}
}
