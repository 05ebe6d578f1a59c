package xgb

import (
	"math"
	"strings"
	"testing"

	"repro/internal/num"
)

func TestLearnsStepFunction(t *testing.T) {
	// Trees excel at steps: y = 1 if x > 0.5 else 0.
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		v := float64(i) / 100
		x = append(x, []float64{v})
		if v > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m := New(DefaultConfig(), num.NewRNG(1))
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{0.9}); math.Abs(p-1) > 0.1 {
		t.Fatalf("step high = %v want ~1", p)
	}
	if p := m.Predict([]float64{0.1}); math.Abs(p) > 0.1 {
		t.Fatalf("step low = %v want ~0", p)
	}
}

func TestLearnsInteraction(t *testing.T) {
	rng := num.NewRNG(9)
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, a*b) // pure interaction
	}
	m := New(DefaultConfig(), num.NewRNG(2))
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var preds, want []float64
	for i := 0; i < 50; i++ {
		a, b := rng.Float64(), rng.Float64()
		preds = append(preds, m.Predict([]float64{a, b}))
		want = append(want, a*b)
	}
	if rho := num.Spearman(preds, want); rho < 0.85 {
		t.Fatalf("interaction Spearman = %v", rho)
	}
}

func TestPaperDefaults(t *testing.T) {
	c := DefaultConfig()
	if c.Rounds != 300 || c.LearningRate != 0.05 || c.MaxDepth != 3 ||
		c.ColSample != 0.6 || c.SubSample != 0.8 || c.Lambda != 0.1 ||
		c.Alpha != 0 || c.MinChildWeight != 1 {
		t.Fatalf("defaults diverge from the paper: %+v", c)
	}
}

func TestNumTrees(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 17
	m := New(cfg, num.NewRNG(1))
	if err := m.Fit([][]float64{{1}, {2}, {3}, {4}}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() != 17 {
		t.Fatalf("trees = %d want 17", m.NumTrees())
	}
}

func TestMaxDepthRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 5
	cfg.MaxDepth = 2
	cfg.SubSample = 1
	cfg.ColSample = 1
	m := New(cfg, num.NewRNG(3))
	var x [][]float64
	var y []float64
	for i := 0; i < 64; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, float64(i%7))
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Depth 2 ⇒ at most 7 nodes per tree (1 root + 2 + 4).
	for ti, tr := range m.trees {
		if len(tr.nodes) > 7 {
			t.Fatalf("tree %d has %d nodes, exceeds depth-2 budget", ti, len(tr.nodes))
		}
	}
}

func TestConstantTarget(t *testing.T) {
	m := New(DefaultConfig(), num.NewRNG(1))
	if err := m.Fit([][]float64{{1}, {2}, {3}}, []float64{4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{2}); math.Abs(p-4) > 1e-9 {
		t.Fatalf("constant predict = %v want 4", p)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	x, y := [][]float64{{1}, {2}, {3}, {4}, {5}}, []float64{5, 3, 8, 1, 9}
	mk := func() float64 {
		m := New(DefaultConfig(), num.NewRNG(21))
		_ = m.Fit(x, y)
		return m.Predict([]float64{2.5})
	}
	if mk() != mk() {
		t.Fatal("same seed must reproduce")
	}
}

func TestFitErrors(t *testing.T) {
	m := New(DefaultConfig(), num.NewRNG(1))
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty fit must error")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched fit must error")
	}
}

// A ragged matrix cannot be read by column and a NaN feature has no place in
// a sorted column (nor a threshold next to it a meaning); both are refused
// before any tree is built or the generator is drawn from.
func TestFitRejectsBadInput(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		x    [][]float64
		y    []float64
	}{
		{"no rows", nil, nil},
		{"rows and targets differ", [][]float64{{1}, {2}}, []float64{1}},
		{"no columns", [][]float64{{}, {}}, []float64{1, 2}},
		{"short row", [][]float64{{1, 2}, {3}, {4, 5}}, []float64{1, 2, 3}},
		{"long row", [][]float64{{1, 2}, {3, 4, 5}}, []float64{1, 2}},
		{"nil row", [][]float64{{1}, nil}, []float64{1, 2}},
		{"NaN feature", [][]float64{{1, 2}, {3, nan}, {4, 5}}, []float64{1, 2, 3}},
		{"NaN in the first row", [][]float64{{nan}, {1}}, []float64{1, 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := New(DefaultConfig(), num.NewRNG(1))
			before := *m.rng
			err := m.Fit(c.x, c.y)
			if err == nil || !strings.HasPrefix(err.Error(), "xgb: ") {
				t.Fatalf("Fit = %v, want an xgb: error", err)
			}
			if m.NumTrees() != 0 || *m.rng != before {
				t.Fatalf("Fit built %d trees and drew from the generator before refusing", m.NumTrees())
			}
		})
	}
	// Infinite features order like any other value and are accepted.
	m := New(DefaultConfig(), num.NewRNG(1))
	if err := m.Fit([][]float64{{math.Inf(-1)}, {0}, {math.Inf(1)}}, []float64{1, 2, 3}); err != nil {
		t.Fatalf("infinite features: %v", err)
	}
}

func TestL1RegularizationShrinksLeaves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 1
	cfg.SubSample = 1
	cfg.ColSample = 1
	x := [][]float64{{0}, {1}}
	y := []float64{0, 0.001} // tiny gradient signal
	plain := New(cfg, num.NewRNG(1))
	_ = plain.Fit(x, y)
	cfgA := cfg
	cfgA.Alpha = 10 // huge L1: all leaves zeroed
	reg := New(cfgA, num.NewRNG(1))
	_ = reg.Fit(x, y)
	if math.Abs(reg.Predict([]float64{1})-reg.base) > 1e-12 {
		t.Fatal("large alpha must zero the leaf contributions")
	}
	_ = plain
}
