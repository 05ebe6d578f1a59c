package autotvm

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/num"
	"repro/internal/runner"
	"repro/internal/te"
)

func TestConfigSpaceIndexRoundTrip(t *testing.T) {
	cs := &ConfigSpace{}
	_ = cs.AddKnob("a", []int{1, 2, 3})
	_ = cs.AddKnob("b", []int{10, 20})
	_ = cs.AddKnob("c", []int{5})
	if cs.Size() != 6 {
		t.Fatalf("size = %d want 6", cs.Size())
	}
	for i := 0; i < cs.Size(); i++ {
		c := cs.FromIndex(i)
		if cs.Index(c) != i {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestConfigSpaceValueAndFeatures(t *testing.T) {
	cs := &ConfigSpace{}
	_ = cs.AddKnob("tile", []int{1, 4, 8})
	c := ConfigEntity{Choices: []int{2}}
	if cs.Value(c, "tile") != 8 {
		t.Fatalf("value = %d", cs.Value(c, "tile"))
	}
	if f := cs.Features(c); f[0] != 8 {
		t.Fatalf("features = %v", f)
	}
	if cs.String(c) != "tile=8" {
		t.Fatalf("string = %s", cs.String(c))
	}
}

func TestConfigSpaceRejectsEmptyKnob(t *testing.T) {
	cs := &ConfigSpace{}
	if err := cs.AddKnob("x", nil); err == nil {
		t.Fatal("empty knob must error")
	}
}

func TestDivisors(t *testing.T) {
	got := divisors(12, 100)
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("divisors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divisors = %v", got)
		}
	}
	if capped := divisors(12, 4); capped[len(capped)-1] != 4 {
		t.Fatalf("cap ignored: %v", capped)
	}
	if d := divisors(7, 3); len(d) != 1 || d[0] != 1 {
		t.Fatalf("prime with low cap = %v", d)
	}
}

func TestTemplateFor(t *testing.T) {
	if _, err := TemplateFor(te.MatMul(4, 4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := TemplateFor(te.ConvGroup(te.ScaleTiny, 0)); err != nil {
		t.Fatal(err)
	}
	bad := &te.Workload{Kernel: "softmax"}
	if _, err := TemplateFor(bad); err == nil {
		t.Fatal("unknown kernel must error")
	}
}

func TestConvTemplateAllConfigsBuild(t *testing.T) {
	factory := func() *te.Workload { return te.ConvGroup(te.ScaleTiny, 0) }
	tmpl := ConvTemplate{}
	space, err := tmpl.Space(factory())
	if err != nil {
		t.Fatal(err)
	}
	if space.Size() < 50 {
		t.Fatalf("conv space suspiciously small: %d", space.Size())
	}
	rng := num.NewRNG(3)
	b := runner.LocalBuilder{Arch: isa.X86}
	for trial := 0; trial < 25; trial++ {
		cfg := space.Sample(rng)
		wl := factory()
		s, err := tmpl.Apply(wl, space, cfg)
		if err != nil {
			t.Fatalf("apply %s: %v", space.String(cfg), err)
		}
		res := b.Build([]runner.MeasureInput{{Factory: factory, Steps: s.Steps}})
		if res[0].Err != nil {
			t.Fatalf("config %s failed to build: %v", space.String(cfg), res[0].Err)
		}
	}
}

func TestMatmulTemplateAllConfigsBuild(t *testing.T) {
	factory := func() *te.Workload { return te.MatMul(16, 12, 24) }
	tmpl := MatmulTemplate{}
	space, err := tmpl.Space(factory())
	if err != nil {
		t.Fatal(err)
	}
	rng := num.NewRNG(5)
	b := runner.LocalBuilder{Arch: isa.ARM}
	for trial := 0; trial < 25; trial++ {
		cfg := space.Sample(rng)
		wl := factory()
		s, err := tmpl.Apply(wl, space, cfg)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		res := b.Build([]runner.MeasureInput{{Factory: factory, Steps: s.Steps}})
		if res[0].Err != nil {
			t.Fatalf("config %s failed to build: %v", space.String(cfg), res[0].Err)
		}
	}
}

func smallSpace() *ConfigSpace {
	cs := &ConfigSpace{}
	_ = cs.AddKnob("a", []int{0, 1, 2, 3})
	_ = cs.AddKnob("b", []int{0, 1, 2, 3})
	return cs
}

func TestRandomTunerNoRepeats(t *testing.T) {
	cs := smallSpace()
	tn := NewRandomTuner(cs, num.NewRNG(1))
	seen := map[int]bool{}
	total := 0
	for tn.HasNext() {
		batch := tn.NextBatch(5)
		if len(batch) == 0 {
			break
		}
		for _, c := range batch {
			idx := cs.Index(c)
			if seen[idx] {
				t.Fatalf("config %d proposed twice", idx)
			}
			seen[idx] = true
			total++
		}
	}
	if total != cs.Size() {
		t.Fatalf("random tuner visited %d of %d", total, cs.Size())
	}
}

// syntheticObjective is a deterministic function over configs with a known
// optimum, used to test that learning tuners beat random on average.
func syntheticObjective(cs *ConfigSpace, c ConfigEntity) float64 {
	f := cs.Features(c)
	s := 0.0
	for _, v := range f {
		s += (v - 2) * (v - 2)
	}
	return s
}

func bigSpace() *ConfigSpace {
	cs := &ConfigSpace{}
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		_ = cs.AddKnob(n, []int{0, 1, 2, 3, 4, 5, 6, 7})
	}
	return cs
}

func runTuner(tn Tuner, cs *ConfigSpace, trials int) float64 {
	best := math.Inf(1)
	for measured := 0; measured < trials && tn.HasNext(); {
		batch := tn.NextBatch(16)
		if len(batch) == 0 {
			break
		}
		scores := make([]float64, len(batch))
		for i, c := range batch {
			scores[i] = syntheticObjective(cs, c)
			if scores[i] < best {
				best = scores[i]
			}
		}
		tn.Update(batch, scores)
		measured += len(batch)
	}
	return best
}

func TestGATunerBeatsRandomOnAverage(t *testing.T) {
	wins := 0
	for seed := uint64(0); seed < 7; seed++ {
		cs := bigSpace()
		ga := runTuner(NewGATuner(cs, num.NewRNG(seed)), cs, 160)
		rd := runTuner(NewRandomTuner(cs, num.NewRNG(seed)), cs, 160)
		if ga <= rd {
			wins++
		}
	}
	if wins < 4 {
		t.Fatalf("GA won only %d/7 runs against random", wins)
	}
}

func TestModelTunerBeatsRandomOnAverage(t *testing.T) {
	wins := 0
	for seed := uint64(0); seed < 7; seed++ {
		cs := bigSpace()
		md := runTuner(NewModelTuner(cs, num.NewRNG(seed)), cs, 160)
		rd := runTuner(NewRandomTuner(cs, num.NewRNG(seed)), cs, 160)
		if md <= rd {
			wins++
		}
	}
	if wins < 4 {
		t.Fatalf("model tuner won only %d/7 runs against random", wins)
	}
}

func TestTuneEndToEndSimulator(t *testing.T) {
	factory := func() *te.Workload { return te.MatMul(16, 16, 16) }
	tmpl := MatmulTemplate{}
	space, _ := tmpl.Space(factory())
	opt := Options{
		Trials:    24,
		BatchSize: 8,
		Builder:   runner.LocalBuilder{Arch: isa.X86},
		Runner:    runner.NewSimulatorRunner(hw.Lookup(isa.X86).Caches, 2, nil),
	}
	records, err := Tune(factory, tmpl, NewRandomTuner(space, num.NewRNG(2)), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 24 {
		t.Fatalf("records = %d want 24", len(records))
	}
	for _, r := range records {
		if r.Err == nil && r.Stats == nil {
			t.Fatal("simulator runner must attach stats")
		}
	}
}

func TestTuneEndToEndNative(t *testing.T) {
	factory := func() *te.Workload { return te.MatMul(16, 16, 16) }
	tmpl := MatmulTemplate{}
	space, _ := tmpl.Space(factory())
	opt := Options{
		Trials:    8,
		BatchSize: 4,
		Builder:   runner.LocalBuilder{Arch: isa.RISCV},
		Runner: runner.NewLocalRunner(hw.Lookup(isa.RISCV),
			hw.DefaultMeasureOptions(), num.NewRNG(3)),
	}
	records, err := Tune(factory, tmpl, NewRandomTuner(space, num.NewRNG(4)), opt)
	if err != nil {
		t.Fatal(err)
	}
	best := Best(records)
	if best == nil || best.TimeSec <= 0 {
		t.Fatalf("no valid best record: %+v", best)
	}
	// Best must be no worse than the first record.
	if best.Score > records[0].Score {
		t.Fatal("Best returned a non-minimal record")
	}
}

func TestTuneOptionValidation(t *testing.T) {
	factory := func() *te.Workload { return te.MatMul(4, 4, 4) }
	tmpl := MatmulTemplate{}
	space, _ := tmpl.Space(factory())
	if _, err := Tune(factory, tmpl, NewRandomTuner(space, num.NewRNG(1)), Options{}); err == nil {
		t.Fatal("missing builder/runner must error")
	}
	opt := Options{Trials: -1, Builder: runner.LocalBuilder{Arch: isa.X86},
		Runner: runner.NewSimulatorRunner(hw.Lookup(isa.X86).Caches, 1, nil)}
	if _, err := Tune(factory, tmpl, NewRandomTuner(space, num.NewRNG(1)), opt); err == nil {
		t.Fatal("non-positive trials must error")
	}
}

func TestBestSkipsFailures(t *testing.T) {
	records := []TrialRecord{
		{Score: math.Inf(1)},
		{Score: 5},
		{Score: 3},
		{Score: 1, Err: errTest},
	}
	b := Best(records)
	if b == nil || b.Score != 3 {
		t.Fatalf("best = %+v", b)
	}
	if Best([]TrialRecord{{Score: math.Inf(1)}}) != nil {
		t.Fatal("all-failed must return nil")
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test" }
