package simtune

import (
	"math"
	"testing"

	"repro/internal/num"
)

// TestRankFidelity holds the reproduction's claim — non-timing simulator
// statistics rank implementations the way the board does (Tables III–V) — to
// a range per ISA: XGBoost trained at ScaleTiny on 48 implementations per
// group, evaluated on every group's held-out quarter, averaged over the five
// groups and seeds 1–3. It is the repository benchmark's paper_pipeline
// train + evaluate stages, so the RISC-V centre values are the benchmark's
// exact predictor.spearman / core.rtop1_pct / core.etop1_pct on seed 1.
//
// The centres are the values at the commit that defined tie order inside a
// feature column (they are exact for a seed: nothing here reads a clock). The
// margins are ±0.02 Spearman, ±3 points R_top1 and ±0.6 points E_top1 — four
// to ten times what that commit itself moved (0.0005 / 0.56 / 0.05) and well
// inside the spread between single seeds (RISC-V R_top1 reads 10, 25 and
// 16.7). A change that leaves a range has changed how well the predictor
// ranks; move the centre in the same change and say why.
func TestRankFidelity(t *testing.T) {
	const spearmanMargin, rtop1Margin, etop1Margin = 0.02, 3.0, 0.6
	centres := map[Arch][3]float64{ // mean Spearman, R_top1 %, E_top1 %
		X86:   {0.9189, 17.7778, 2.0134},
		ARM:   {0.9138, 12.7778, 1.0105},
		RISCV: {0.9212, 17.2222, 0.4944},
	}
	for _, arch := range Archs() {
		want, ok := centres[arch]
		if !ok {
			t.Fatalf("%s has no pinned range", arch)
		}
		var spearman, rtop1, etop1 []float64
		for seed := uint64(1); seed <= 3; seed++ {
			model, err := TrainScorePredictor(TrainOptions{Arch: arch, Scale: ScaleTiny,
				Predictor: "XGBoost", ImplsPerGroup: 48, NParallel: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var s, r, e []float64
			for g := 0; g < 5; g++ {
				m, err := model.Evaluate(g)
				if err != nil {
					t.Fatal(err)
				}
				s, r, e = append(s, m.Spearman), append(r, m.Rtop1), append(e, m.Etop1)
			}
			spearman, rtop1, etop1 = append(spearman, num.Mean(s)), append(rtop1, num.Mean(r)), append(etop1, num.Mean(e))
		}
		for _, c := range []struct {
			name           string
			got, want, tol float64
		}{
			{"mean Spearman", num.Mean(spearman), want[0], spearmanMargin},
			{"mean R_top1 %", num.Mean(rtop1), want[1], rtop1Margin},
			{"mean E_top1 %", num.Mean(etop1), want[2], etop1Margin},
		} {
			if math.IsNaN(c.got) || math.Abs(c.got-c.want) > c.tol {
				t.Errorf("%s %s = %.4f, outside %.4f ± %g", arch, c.name, c.got, c.want, c.tol)
			}
		}
	}
}
