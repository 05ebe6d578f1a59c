package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/num"
	"repro/internal/predictor/bayes"
)

// Fig5Panel is one panel of Figure 5: the test samples of the evaluated
// group with reference times sorted ascending, and the same samples' times
// ordered by the Bayesian predictor's scores.
type Fig5Panel struct {
	Arch isa.Arch
	// Included reports whether the evaluated group was in the training set
	// (panels a–c) or not (panels d–f).
	Included bool
	// RefSorted is t_ref sorted ascending.
	RefSorted []float64
	// PredOrder is the measured run time of each sample in predicted-score
	// order (t_pred in the paper's plots).
	PredOrder []float64
	// Metrics are the paper metrics of the panel.
	Metrics metrics.Result
}

// Fig5 reproduces Figure 5 for the given group (paper: group 3): Bayesian
// predictors are trained per architecture once with all groups and once with
// the evaluated group excluded from training; the same test samples are then
// scored. Excluded-group scoring uses a dynamic window for the group means,
// since the means of an unseen group are unknown at inference (§III-E).
func Fig5(cfg Config, group int, w io.Writer, csvW io.Writer) ([]Fig5Panel, error) {
	var panels []Fig5Panel
	for _, arch := range isa.Archs() {
		ds, err := cfg.Dataset(arch)
		if err != nil {
			return nil, err
		}
		if _, ok := ds.GroupByIndex(group); !ok {
			return nil, fmt.Errorf("experiments: fig5 group %d missing from dataset", group)
		}
		var all, others []int
		for _, g := range ds.Groups {
			all = append(all, g.Group)
			if g.Group != group {
				others = append(others, g.Group)
			}
		}
		rng := num.NewRNG(cfg.Seed + 500)
		split := ds.Split(rng.Split(), cfg.TestPerGroup)

		for _, included := range []bool{true, false} {
			groups := all
			if !included {
				groups = others
			}
			x, y, norms, err := core.TrainingMatrix(ds, split, groups)
			if err != nil {
				return nil, err
			}
			pred := bayes.New(bayes.DefaultConfig(), rng.Split())
			if err := pred.Fit(x, y); err != nil {
				return nil, err
			}
			var norm features.Normalizer
			if included {
				norm = norms[group].Norm
			} else {
				norm = features.NewDynamicWindow()
			}
			g, _ := ds.GroupByIndex(group)
			scores, tref := core.PredictGroup(g, split.Test[group], pred, norm)
			res := metrics.Evaluate(tref, scores)

			refSorted := append([]float64(nil), tref...)
			order := num.ArgSort(scores)
			predOrder := make([]float64, len(order))
			for i, idx := range order {
				predOrder[i] = tref[idx]
			}
			slices.Sort(refSorted)
			panels = append(panels, Fig5Panel{
				Arch: arch, Included: included,
				RefSorted: refSorted, PredOrder: predOrder, Metrics: res,
			})
		}
	}
	if w != nil {
		line(w, "Fig. 5: sorted run-time predictions for the test set of group %d (Bayes)", group)
		for _, p := range panels {
			label := "included in training"
			if !p.Included {
				label = "NOT included in training"
			}
			asciiPlot(w, fmt.Sprintf("%s — group %d %s (%s)", p.Arch, group, label, p.Metrics), p.RefSorted, p.PredOrder)
		}
	}
	if csvW != nil {
		var headers []string
		var cols [][]float64
		for _, p := range panels {
			tag := fmt.Sprintf("%s_incl%v", p.Arch, p.Included)
			headers = append(headers, "tref_"+tag, "tpred_"+tag)
			cols = append(cols, p.RefSorted, p.PredOrder)
		}
		writeCSV(csvW, headers, cols)
	}
	return panels, nil
}
