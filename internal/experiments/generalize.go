package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/num"
	"repro/internal/predictor/xgb"
	"repro/internal/sim"
)

// Generalize implements the paper's future-work direction (§V): train a
// predictor on a broader range of CPUs and apply it to a previously untested
// CPU. For each target architecture, an XGBoost predictor is trained only on
// the other two architectures' corpora — using architecture-agnostic
// features (instruction mix plus L1D/L1I/L2 ratios, all CPUs share those
// levels, augmented with SIMD width and clock as machine descriptors) — and
// evaluated on the held-out architecture without ever seeing its native run
// times. The same-architecture predictor on identical features is the
// reference point.

// GeneralizeRow is one (target, training-mode) outcome: median metrics over
// the target's groups.
type GeneralizeRow struct {
	Target   isa.Arch
	Mode     string // "same-arch" or "cross-arch"
	Rtop1    float64
	Etop1    float64
	Spearman float64
}

// commonRawLen covers the instruction mix (3) and L1D/L1I/L2 ratios (18),
// present on every Table I CPU.
const commonRawLen = 3 + 3*6

// archSample converts stats to the architecture-agnostic feature sample.
func archSample(st *sim.Stats, prof hw.Profile) features.Sample {
	s := features.FromStats(st)
	raw := append([]float64{}, s.Raw[:commonRawLen]...)
	model := isa.Lookup(prof.Arch)
	raw = append(raw, float64(model.Lanes), prof.FreqGHz, float64(model.FPRegs))
	return features.Sample{Raw: raw, Total: s.Total}
}

// archGroupData builds (vectors, targets, per-group test vectors/times) for
// one architecture with per-group oracle normalization over the common
// features.
type archGroup struct {
	trainX [][]float64
	trainY []float64
	testX  [][]float64
	testT  []float64
}

func buildArchGroups(ds *core.Dataset, prof hw.Profile, split core.SplitIndices) []*archGroup {
	out := make([]*archGroup, 0, len(ds.Groups))
	for gi := range ds.Groups {
		g := &ds.Groups[gi]
		trainIdx := split.Train[g.Group]
		samples := make([]features.Sample, 0, len(trainIdx))
		times := make([]float64, 0, len(trainIdx))
		for _, i := range trainIdx {
			samples = append(samples, archSample(g.Impls[i].Stats, prof))
			times = append(times, g.Impls[i].TrefSec)
		}
		norm := features.NewOracle(samples)
		meanT := num.Mean(times)
		ag := &archGroup{}
		for k, i := range trainIdx {
			ag.trainX = append(ag.trainX, norm.Vector(samples[k]))
			ag.trainY = append(ag.trainY, features.NormalizeTarget(g.Impls[i].TrefSec, meanT))
		}
		for _, i := range split.Test[g.Group] {
			s := archSample(g.Impls[i].Stats, prof)
			ag.testX = append(ag.testX, norm.Vector(s))
			ag.testT = append(ag.testT, g.Impls[i].TrefSec)
		}
		out = append(out, ag)
	}
	return out
}

// Generalize runs the cross-CPU study and renders a comparison table.
func Generalize(cfg Config, w io.Writer) ([]GeneralizeRow, error) {
	rng := num.NewRNG(cfg.Seed + 4000)
	// Pre-build per-arch group data, in isa.Archs() and dataset order: the
	// XGBoost fit subsamples rows, so their order is part of the result.
	archs := isa.Archs()
	perArch := make([][]*archGroup, len(archs))
	for ai, arch := range archs {
		ds, err := cfg.Dataset(arch)
		if err != nil {
			return nil, err
		}
		split := ds.Split(rng.Split(), cfg.TestPerGroup)
		perArch[ai] = buildArchGroups(ds, hw.Lookup(arch), split)
	}
	var rows []GeneralizeRow
	for ti, target := range archs {
		for _, mode := range []string{"same-arch", "cross-arch"} {
			var x [][]float64
			var y []float64
			for ai, groups := range perArch {
				if (mode == "same-arch") != (ai == ti) {
					continue
				}
				for _, ag := range groups {
					x = append(x, ag.trainX...)
					y = append(y, ag.trainY...)
				}
			}
			pred := xgb.New(xgb.DefaultConfig(), rng.Split())
			if err := pred.Fit(x, y); err != nil {
				return nil, fmt.Errorf("experiments: generalize %s/%s: %w", target, mode, err)
			}
			var agg []metrics.Result
			for _, ag := range perArch[ti] {
				scores := pred.PredictBatch(ag.testX)
				agg = append(agg, metrics.Evaluate(ag.testT, scores))
			}
			med := metrics.MedianOf(agg)
			rows = append(rows, GeneralizeRow{
				Target: target, Mode: mode,
				Rtop1: med.Rtop1, Etop1: med.Etop1, Spearman: med.Spearman,
			})
		}
	}
	if w != nil {
		line(w, "Extension (§V future work): generalized predictors for untested CPUs")
		line(w, "(cross-arch = trained ONLY on the other two architectures' boards)")
		var trows [][]string
		for _, r := range rows {
			trows = append(trows, []string{string(r.Target), r.Mode,
				fmt.Sprintf("%.1f", r.Etop1), fmt.Sprintf("%.1f", r.Rtop1),
				fmt.Sprintf("%.3f", r.Spearman)})
		}
		renderTable(w, []string{"target", "training", "Etop1%", "Rtop1%", "Spearman"}, trows)
	}
	return rows, nil
}
