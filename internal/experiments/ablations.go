package experiments

import (
	"fmt"
	"io"

	"repro/internal/autotvm"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/num"
	"repro/internal/predictor/xgb"
	"repro/internal/runner"
	"repro/internal/te"
)

// WindowAblationRow compares §III-E group-mean approximations on one group.
type WindowAblationRow struct {
	Window string
	Result metrics.Result
}

// WindowAblation trains an XGBoost predictor on all groups and scores one
// group's test set with oracle means, a static window and a dynamic window.
// The paper's claim (§III-E): the window size is typically large enough that
// no accuracy loss was observed.
func WindowAblation(cfg Config, arch isa.Arch, group int, w io.Writer) ([]WindowAblationRow, error) {
	ds, err := cfg.Dataset(arch)
	if err != nil {
		return nil, err
	}
	rng := num.NewRNG(cfg.Seed + 41)
	split := ds.Split(rng.Split(), cfg.TestPerGroup)
	var groups []int
	for _, g := range ds.Groups {
		groups = append(groups, g.Group)
	}
	x, y, norms, err := core.TrainingMatrix(ds, split, groups)
	if err != nil {
		return nil, err
	}
	pred := xgb.New(xgb.DefaultConfig(), rng.Split())
	if err := pred.Fit(x, y); err != nil {
		return nil, err
	}
	staticW := cfg.BatchSize
	normalizers := []features.Normalizer{
		norms[group].Norm,
		features.NewStaticWindow(staticW),
		features.NewDynamicWindow(),
	}
	var rows []WindowAblationRow
	for _, n := range normalizers {
		res, err := core.EvalGroup(ds, split, group, pred, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WindowAblationRow{Window: n.Name(), Result: res})
	}
	if w != nil {
		line(w, "Ablation: window normalization (%s, group %d, XGBoost)", arch, group)
		var trows [][]string
		for _, r := range rows {
			trows = append(trows, []string{r.Window,
				fmt.Sprintf("%.1f", r.Result.Etop1), fmt.Sprintf("%.1f", r.Result.Qlow),
				fmt.Sprintf("%.1f", r.Result.Qhigh), fmt.Sprintf("%.1f", r.Result.Rtop1)})
		}
		renderTable(w, []string{"window", "Etop1%", "Qlow%", "Qhigh%", "Rtop1%"}, trows)
	}
	return rows, nil
}

// FeatureAblationRow compares feature subsets (§III-D: "the most promising
// approach is to use these parameters in both their original form and their
// normalized form").
type FeatureAblationRow struct {
	Features string
	Result   metrics.Result
}

// FeatureAblation retrains with masked feature subsets.
func FeatureAblation(cfg Config, arch isa.Arch, group int, w io.Writer) ([]FeatureAblationRow, error) {
	ds, err := cfg.Dataset(arch)
	if err != nil {
		return nil, err
	}
	rng := num.NewRNG(cfg.Seed + 42)
	split := ds.Split(rng.Split(), cfg.TestPerGroup)
	var groups []int
	for _, g := range ds.Groups {
		groups = append(groups, g.Group)
	}
	x, y, norms, err := core.TrainingMatrix(ds, split, groups)
	if err != nil {
		return nil, err
	}
	rawLen := (len(x[0]) - 1) / 2
	variants := []struct {
		name string
		keep func(col int) bool
	}{
		{"full (raw+norm+total)", func(int) bool { return true }},
		{"raw only", func(c int) bool { return c < rawLen }},
		{"normalized only", func(c int) bool { return c >= rawLen }},
		{"cache ratios only", func(c int) bool { return c >= 3 && c < rawLen }},
		{"instr mix only", func(c int) bool { return c < 3 }},
	}
	var rows []FeatureAblationRow
	for _, v := range variants {
		var cols []int
		for cIdx := 0; cIdx < len(x[0]); cIdx++ {
			if v.keep(cIdx) {
				cols = append(cols, cIdx)
			}
		}
		xm := maskColumns(x, cols)
		pred := xgb.New(xgb.DefaultConfig(), rng.Split())
		if err := pred.Fit(xm, y); err != nil {
			return nil, err
		}
		g, _ := ds.GroupByIndex(group)
		var scores, tref []float64
		for _, i := range split.Test[group] {
			impl := &g.Impls[i]
			s := features.FromStats(impl.Stats)
			vec := norms[group].Norm.Vector(s)
			scores = append(scores, pred.Predict(maskRow(vec, cols)))
			tref = append(tref, impl.TrefSec)
		}
		rows = append(rows, FeatureAblationRow{Features: v.name, Result: metrics.Evaluate(tref, scores)})
	}
	if w != nil {
		line(w, "Ablation: feature sets (%s, group %d, XGBoost)", arch, group)
		var trows [][]string
		for _, r := range rows {
			trows = append(trows, []string{r.Features,
				fmt.Sprintf("%.1f", r.Result.Etop1), fmt.Sprintf("%.1f", r.Result.Rtop1),
				fmt.Sprintf("%.2f", r.Result.Spearman)})
		}
		renderTable(w, []string{"features", "Etop1%", "Rtop1%", "Spearman"}, trows)
	}
	return rows, nil
}

func maskColumns(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = maskRow(row, cols)
	}
	return out
}

func maskRow(row []float64, cols []int) []float64 {
	out := make([]float64, len(cols))
	for j, c := range cols {
		out[j] = row[c]
	}
	return out
}

// NoiseAblationRow shows predictor quality versus measurement-noise scale.
type NoiseAblationRow struct {
	NoiseScale float64
	Nexe       int
	Spearman   float64
	Rtop1      float64
}

// NoiseAblation re-samples the reference measurements from the stored
// noiseless run times at different noise scales and N_exe, then retrains —
// quantifying why the paper repeats every measurement 15 times and uses
// medians.
func NoiseAblation(cfg Config, arch isa.Arch, w io.Writer) ([]NoiseAblationRow, error) {
	ds, err := cfg.Dataset(arch)
	if err != nil {
		return nil, err
	}
	prof := hw.Lookup(arch)
	rng := num.NewRNG(cfg.Seed + 43)
	var rows []NoiseAblationRow
	cases := []struct {
		scale float64
		nexe  int
	}{{0, 15}, {1, 15}, {1, 3}, {1, 1}, {4, 15}, {4, 1}}
	for _, cse := range cases {
		// Re-sample reference times.
		noisy := resampleDataset(ds, prof, cse.scale, cse.nexe, rng.Split())
		split := noisy.Split(rng.Split(), cfg.TestPerGroup)
		var groups []int
		for _, g := range noisy.Groups {
			groups = append(groups, g.Group)
		}
		x, y, norms, err := core.TrainingMatrix(noisy, split, groups)
		if err != nil {
			return nil, err
		}
		pred := xgb.New(xgb.DefaultConfig(), rng.Split())
		if err := pred.Fit(x, y); err != nil {
			return nil, err
		}
		// Evaluate ranking against the NOISELESS truth on every group.
		var agg []metrics.Result
		for _, gi := range groups {
			g, _ := noisy.GroupByIndex(gi)
			var scores, truth []float64
			for _, i := range split.Test[gi] {
				impl := &g.Impls[i]
				s := features.FromStats(impl.Stats)
				scores = append(scores, pred.Predict(norms[gi].Norm.Vector(s)))
				truth = append(truth, impl.TrueSec)
			}
			agg = append(agg, metrics.Evaluate(truth, scores))
		}
		med := metrics.MedianOf(agg)
		rows = append(rows, NoiseAblationRow{
			NoiseScale: cse.scale, Nexe: cse.nexe,
			Spearman: med.Spearman, Rtop1: med.Rtop1,
		})
	}
	if w != nil {
		line(w, "Ablation: measurement noise vs predictor quality (%s, XGBoost)", arch)
		var trows [][]string
		for _, r := range rows {
			trows = append(trows, []string{
				fmt.Sprintf("%.1fx", r.NoiseScale), fmt.Sprintf("%d", r.Nexe),
				fmt.Sprintf("%.3f", r.Spearman), fmt.Sprintf("%.1f", r.Rtop1)})
		}
		renderTable(w, []string{"noise", "Nexe", "Spearman(truth)", "Rtop1%"}, trows)
	}
	return rows, nil
}

// resampleDataset redraws t_ref from stored noiseless times with scaled
// noise parameters.
func resampleDataset(ds *core.Dataset, prof hw.Profile, noiseScale float64, nexe int, rng *num.RNG) *core.Dataset {
	scaled := prof
	scaled.Timing.NoiseBase *= noiseScale
	scaled.Timing.NoiseShort *= noiseScale
	scaled.Timing.OutlierProb *= noiseScale
	opt := hw.MeasureOptions{Nexe: nexe, CooldownSec: 1}
	out := &core.Dataset{Arch: ds.Arch, Scale: ds.Scale, Kernel: ds.Kernel}
	for _, g := range ds.Groups {
		ng := core.GroupData{Group: g.Group, WorkloadKey: g.WorkloadKey}
		for _, impl := range g.Impls {
			ni := impl
			if noiseScale == 0 {
				ni.TrefSec = impl.TrueSec
			} else {
				m := hw.SampleMeasurement(impl.TrueSec, scaled, opt, rng.Split())
				ni.TrefSec = m.TrefSec
			}
			ng.Impls = append(ng.Impls, ni)
		}
		out.Groups = append(out.Groups, ng)
	}
	return out
}

// TrainSizeRow shows metrics versus implementations per group.
type TrainSizeRow struct {
	PerGroup int
	Rtop1    float64
	Spearman float64
}

// TrainSizeAblation subsamples the training portion (the paper trains with
// 400 per group; this quantifies the budget sensitivity).
func TrainSizeAblation(cfg Config, arch isa.Arch, w io.Writer) ([]TrainSizeRow, error) {
	ds, err := cfg.Dataset(arch)
	if err != nil {
		return nil, err
	}
	rng := num.NewRNG(cfg.Seed + 44)
	split := ds.Split(rng.Split(), cfg.TestPerGroup)
	var groups []int
	for _, g := range ds.Groups {
		groups = append(groups, g.Group)
	}
	full := len(split.Train[groups[0]])
	sizes := []int{full / 8, full / 4, full / 2, full}
	var rows []TrainSizeRow
	for _, sz := range sizes {
		if sz < 4 {
			continue
		}
		sub := core.SplitIndices{Train: map[int][]int{}, Test: split.Test}
		for _, gi := range groups {
			tr := split.Train[gi]
			if sz < len(tr) {
				sub.Train[gi] = tr[:sz]
			} else {
				sub.Train[gi] = tr
			}
		}
		x, y, norms, err := core.TrainingMatrix(ds, sub, groups)
		if err != nil {
			return nil, err
		}
		pred := xgb.New(xgb.DefaultConfig(), rng.Split())
		if err := pred.Fit(x, y); err != nil {
			return nil, err
		}
		var agg []metrics.Result
		for _, gi := range groups {
			res, err := core.EvalGroup(ds, sub, gi, pred, norms[gi].Norm)
			if err != nil {
				return nil, err
			}
			agg = append(agg, res)
		}
		med := metrics.MedianOf(agg)
		rows = append(rows, TrainSizeRow{PerGroup: sz, Rtop1: med.Rtop1, Spearman: med.Spearman})
	}
	if w != nil {
		line(w, "Ablation: training set size (%s, XGBoost)", arch)
		var trows [][]string
		for _, r := range rows {
			trows = append(trows, []string{fmt.Sprintf("%d", r.PerGroup),
				fmt.Sprintf("%.1f", r.Rtop1), fmt.Sprintf("%.3f", r.Spearman)})
		}
		renderTable(w, []string{"train impls/group", "Rtop1%", "Spearman"}, trows)
	}
	return rows, nil
}

// TunerRow compares AutoTVM tuners on simulator scores.
type TunerRow struct {
	Tuner    string
	BestTref float64
}

// TunerComparison runs the AutoTVM tuners on one conv group with native
// (timing-model) measurement and reports the best reference time found
// within the trial budget.
func TunerComparison(cfg Config, arch isa.Arch, group, trials int, w io.Writer) ([]TunerRow, error) {
	prof := hw.Lookup(arch)
	factory := func() *te.Workload { return te.ConvGroup(cfg.Scale, group) }
	tmpl := autotvm.ConvTemplate{}
	space, err := tmpl.Space(factory())
	if err != nil {
		return nil, err
	}
	opt := hw.MeasureOptions{Nexe: 3, CooldownSec: 0.1}
	rng := num.NewRNG(cfg.Seed + 45)
	mk := map[string]func() autotvm.Tuner{
		"random":    func() autotvm.Tuner { return autotvm.NewRandomTuner(space, rng.Split()) },
		"ga":        func() autotvm.Tuner { return autotvm.NewGATuner(space, rng.Split()) },
		"xgb-model": func() autotvm.Tuner { return autotvm.NewModelTuner(space, rng.Split()) },
	}
	var rows []TunerRow
	for _, name := range []string{"random", "ga", "xgb-model"} {
		tOpt := autotvm.Options{
			Trials: trials, BatchSize: 16,
			Builder: runner.LocalBuilder{Arch: arch},
			Runner:  runner.NewLocalRunner(prof, opt, rng.Split()),
		}
		records, err := autotvm.Tune(factory, tmpl, mk[name](), tOpt)
		if err != nil {
			return nil, err
		}
		best := autotvm.Best(records)
		if best == nil {
			return nil, fmt.Errorf("experiments: tuner %s found nothing", name)
		}
		rows = append(rows, TunerRow{Tuner: name, BestTref: best.TimeSec})
	}
	if w != nil {
		line(w, "Ablation: AutoTVM tuner comparison (%s, group %d, %d trials)", arch, group, trials)
		var trows [][]string
		for _, r := range rows {
			trows = append(trows, []string{r.Tuner, fmt.Sprintf("%.6f s", r.BestTref)})
		}
		renderTable(w, []string{"tuner", "best tref"}, trows)
	}
	return rows, nil
}
