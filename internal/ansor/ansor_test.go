package ansor

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/te"
)

func convFactory() *te.Workload { return te.ConvGroup(te.ScaleTiny, 1) }

func simOptions(trials int) Options {
	opt := DefaultOptions()
	opt.Trials = trials
	opt.BatchSize = 8
	opt.Builder = runner.LocalBuilder{Arch: isa.X86}
	opt.Runner = runner.NewSimulatorRunner(hw.Lookup(isa.X86).Caches, 2, nil)
	return opt
}

func TestRandomGenomesMaterializeAndBuild(t *testing.T) {
	p, err := NewPolicy(convFactory, simOptions(1), num.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	model := isa.Lookup(isa.ARM)
	for trial := 0; trial < 40; trial++ {
		g := p.randomGenome()
		wl := convFactory()
		s, err := p.materialize(wl, g)
		if err != nil {
			t.Fatalf("materialize: %v (genome %s)", err, g.key())
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid schedule: %v", err)
		}
		if _, err := lower.Build(s, model); err != nil {
			t.Fatalf("build: %v (genome %s)", err, g.key())
		}
	}
}

func TestMaterializedSchedulesComputeCorrectly(t *testing.T) {
	p, err := NewPolicy(convFactory, simOptions(1), num.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := num.NewRNG(3)
	for trial := 0; trial < 5; trial++ {
		g := p.randomGenome()
		wl := convFactory()
		for _, in := range wl.Op.Inputs {
			in.Alloc()
			for i := range in.Data {
				in.Data[i] = float32(rng.Uniform(-1, 1))
			}
		}
		s, err := p.materialize(wl, g)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lower.Build(s, isa.Lookup(isa.X86))
		if err != nil {
			t.Fatal(err)
		}
		sink := &lower.CountingSink{}
		lower.Execute(prog, sink, true)
		got := append([]float32(nil), wl.Op.Out.Data...)
		wl.Op.ReferenceEval()
		for i := range got {
			d := float64(got[i] - wl.Op.Out.Data[i])
			if math.Abs(d) > 1e-3 {
				t.Fatalf("genome %s: output[%d] = %v want %v", g.key(), i, got[i], wl.Op.Out.Data[i])
			}
		}
	}
}

func TestSketchStructureVariants(t *testing.T) {
	p, _ := NewPolicy(convFactory, simOptions(1), num.NewRNG(2))
	g := p.randomGenome()
	for variant := 0; variant < numOrderVariants; variant++ {
		g.orderVariant = variant
		wl := convFactory()
		s, err := p.materialize(wl, g)
		if err != nil {
			t.Fatalf("variant %d: %v", variant, err)
		}
		// 3-level spatial tiling: each spatial axis contributes 3 loops;
		// reduce axes contribute 2 each.
		want := 3*len(wl.Op.Spatial) + 2*len(wl.Op.Reduce)
		if len(s.Leaves) != want {
			t.Fatalf("variant %d: %d loops want %d", variant, len(s.Leaves), want)
		}
	}
}

func TestGenomeKeyDistinguishes(t *testing.T) {
	p, _ := NewPolicy(convFactory, simOptions(1), num.NewRNG(4))
	a := p.randomGenome()
	b := cloneGenome(a)
	if a.key() != b.key() {
		t.Fatal("clone must share key")
	}
	b.vectorize = !b.vectorize
	if a.key() == b.key() {
		t.Fatal("different genomes must differ in key")
	}
}

func TestMutationKeepsValidity(t *testing.T) {
	p, _ := NewPolicy(convFactory, simOptions(1), num.NewRNG(5))
	g := p.randomGenome()
	for i := 0; i < 30; i++ {
		g = p.mutate(g)
		wl := convFactory()
		if _, err := p.materialize(wl, g); err != nil {
			t.Fatalf("mutated genome invalid: %v", err)
		}
	}
}

func TestCrossoverFieldsFromParents(t *testing.T) {
	p, _ := NewPolicy(convFactory, simOptions(1), num.NewRNG(6))
	a, b := p.randomGenome(), p.randomGenome()
	child := p.crossover(a, b)
	for i := range child.spatialInner {
		if child.spatialInner[i] != a.spatialInner[i] && child.spatialInner[i] != b.spatialInner[i] {
			t.Fatal("crossover invented a tile factor")
		}
	}
}

func TestSearchEndToEnd(t *testing.T) {
	records, err := Search(convFactory, simOptions(24), num.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 24 {
		t.Fatalf("records = %d want 24", len(records))
	}
	okCount := 0
	for _, r := range records {
		if r.Err == nil {
			okCount++
			if r.Stats == nil {
				t.Fatal("simulator search must attach stats")
			}
			if len(r.Steps) == 0 {
				t.Fatal("record without steps")
			}
		}
	}
	if okCount < 20 {
		t.Fatalf("too many failed candidates: %d/24 ok", okCount)
	}
}

func TestSearchDeduplicates(t *testing.T) {
	records, err := Search(convFactory, simOptions(30), num.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range records {
		if r.Err != nil {
			continue
		}
		fp := schedule.Fingerprint(r.Steps)
		if seen[fp] {
			t.Fatalf("duplicate candidate measured: %s", fp)
		}
		seen[fp] = true
	}
}

func TestSearchImprovesOverBatches(t *testing.T) {
	// Evolution should find something at least as good as the first batch's
	// best (weak but deterministic sanity check on guided search).
	records, err := Search(convFactory, simOptions(48), num.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	firstBatchBest := math.Inf(1)
	for _, r := range records[:8] {
		if r.Err == nil && r.Score < firstBatchBest {
			firstBatchBest = r.Score
		}
	}
	best := math.Inf(1)
	for _, r := range records {
		if r.Err == nil && r.Score < best {
			best = r.Score
		}
	}
	if math.IsInf(best, 1) {
		t.Fatal("no successful record")
	}
	if best > firstBatchBest {
		t.Fatalf("search regressed: best %v vs first-batch %v", best, firstBatchBest)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Search(convFactory, Options{Trials: 5}, num.NewRNG(1)); err == nil {
		t.Fatal("missing builder/runner must error")
	}
	opt := simOptions(0)
	if _, err := Search(convFactory, opt, num.NewRNG(1)); err == nil {
		t.Fatal("zero trials must error")
	}
}

func TestRandomSketches(t *testing.T) {
	sketches, err := RandomSketches(convFactory, 10, num.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(sketches) != 10 {
		t.Fatalf("sketches = %d", len(sketches))
	}
	for _, s := range sketches {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := lower.Build(s, isa.Lookup(isa.RISCV)); err != nil {
			t.Fatal(err)
		}
	}
}
