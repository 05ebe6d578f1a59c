package main

import (
	"context"
	"fmt"
	"time"

	simtune "repro"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/num"
	"repro/internal/predictor/registry"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/te"
)

// pipelineSize sizes one pass of the paper's Fig. 4 path.
type pipelineSize struct {
	Impls     int    // auto-scheduler implementations per training group
	Trials    int    // tuning budget on the held-out group
	TopK      int    // records re-measured on the target (about 3% of Trials)
	Predictor string // the smoke run fits a linear model, not 300 trees
}

var (
	fullPipelineSize  = pipelineSize{Impls: 48, Trials: 256, TopK: 8, Predictor: "XGBoost"}
	smokePipelineSize = pipelineSize{Impls: 8, Trials: 16, TopK: 2, Predictor: "LinReg"}
)

const (
	pipelineArch  = isa.RISCV
	pipelineScale = te.ScaleTiny
	pipelineGroup = 3
	// qualityPasses is how many leading passes (seeds s, s+1, s+2) the exact
	// prediction-quality metrics are averaged over, however many passes the
	// timed window fits.
	qualityPasses = 3
)

var pipelineStages = []string{"core.train", "core.evaluate", "core.tune", "core.validate"}

// pipeline is the paper_pipeline workload: per pass, train a score predictor
// on simulator statistics, evaluate it on every group, tune one group through
// a cold in-process simulate service and validate the best predictions on the
// timing model.
type pipeline struct {
	cfg  config
	tr   *tracer
	size pipelineSize

	wrong  int
	setups uint64
	// Exact simulated quality, one entry per leading pass.
	rtop1, etop1, spearman, bestUS []float64
	// Kept from pass 0 for verification and the layer metrics.
	model      *simtune.TrainedModel
	records    []simtune.Record
	top        []simtune.Record
	localHits  uint64
	localMiss  uint64
	duplicates uint64
}

func newPipeline(cfg config, tr *tracer) *pipeline {
	w := &pipeline{cfg: cfg, tr: tr, size: fullPipelineSize}
	if cfg.Smoke {
		w.size = smokePipelineSize
	}
	return w
}

// setup has no inputs to generate: it runs the pipeline once on a seed no
// pass uses (and no earlier set-up used: core.CachedDataset memoises per
// process), so that machine pools and lazily built tables exist before the
// first timed pass.
func (w *pipeline) setup() error {
	w.setups++
	_, err := w.once(nil, w.cfg.Seed+w.setups<<32, "warm-up", false)
	return err
}

func (w *pipeline) teardown() {}

// timedRunner times every measurement batch the tuner waits for, and on a
// traced run records it as a span and wraps the scorer it is handed.
type timedRunner struct {
	inner   *service.ServiceRunner
	tr      *tracer
	trace   string
	batchMS []float64
}

var (
	_ runner.Runner       = (*timedRunner)(nil)
	_ runner.ScorerSetter = (*timedRunner)(nil)
)

func (r *timedRunner) Name() string   { return r.inner.Name() }
func (r *timedRunner) NParallel() int { return r.inner.NParallel() }

func (r *timedRunner) Run(inputs []runner.MeasureInput, builds []runner.BuildResult) []runner.MeasureResult {
	t0 := time.Now()
	out := r.inner.Run(inputs, builds)
	t1 := time.Now()
	r.batchMS = append(r.batchMS, float64(t1.Sub(t0))/1e6)
	r.tr.record("runner.run", r.trace, "", t0, t1)
	return out
}

func (r *timedRunner) SetScorer(s runner.Scorer) {
	if r.tr != nil {
		s = &timedScorer{inner: s, tr: r.tr, trace: r.trace}
	}
	r.inner.SetScorer(s)
}

// timedScorer records a span around every predictor call.
type timedScorer struct {
	inner runner.Scorer
	tr    *tracer
	trace string
}

func (s *timedScorer) Score(st *sim.Stats) float64 {
	if !s.tr.on() {
		return s.inner.Score(st)
	}
	t0 := time.Now()
	v := s.inner.Score(st)
	s.tr.record("predictor.score", s.trace, "", t0, time.Now())
	return v
}

// timedBuilder records a span around the client-side build step.
type timedBuilder struct {
	inner runner.Builder
	tr    *tracer
	trace string
}

func (b *timedBuilder) Build(inputs []runner.MeasureInput) []runner.BuildResult {
	t0 := time.Now()
	out := b.inner.Build(inputs)
	b.tr.record("runner.build", b.trace, "", t0, time.Now())
	return out
}

func (w *pipeline) pass(p int) (*passResult, error) {
	return w.once(w.tr, w.cfg.Seed+uint64(p), fmt.Sprintf("pass-%d", p), p < qualityPasses)
}

// once runs the four stages on one seed. keep marks a leading pass, whose
// exact quality numbers enter the reported means.
func (w *pipeline) once(tr *tracer, seed uint64, trace string, keep bool) (*passResult, error) {
	res := &passResult{}
	groups := []int{0, 1, 2, 3, 4}
	marks := []time.Time{time.Now()}
	mark := func() { marks = append(marks, time.Now()) }

	model, err := simtune.TrainScorePredictor(simtune.TrainOptions{
		Arch: pipelineArch, Scale: pipelineScale, Predictor: w.size.Predictor, Groups: groups,
		ImplsPerGroup: w.size.Impls, NParallel: w.cfg.Clients, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	mark()

	var rtop1, etop1, spearman []float64
	for _, g := range groups {
		m, err := model.Evaluate(g)
		if err != nil {
			return nil, fmt.Errorf("evaluate group %d: %w", g, err)
		}
		rtop1, etop1, spearman = append(rtop1, m.Rtop1), append(etop1, m.Etop1), append(spearman, m.Spearman)
	}
	mark()

	srv, err := service.NewServer(service.Config{Archs: []isa.Arch{pipelineArch}, WorkersPerArch: w.cfg.Clients})
	if err != nil {
		return nil, err
	}
	tuneRunner := &timedRunner{
		inner: &service.ServiceRunner{Backend: srv, Arch: pipelineArch,
			Workload: service.ConvGroupSpec(pipelineScale, pipelineGroup), NPar: w.cfg.Clients},
		tr: tr, trace: trace,
	}
	records, err := core.ExecutionPhase(hw.Lookup(pipelineArch), model.Pred, core.ExecutionOptions{
		Scale: pipelineScale, Group: pipelineGroup, Trials: w.size.Trials, NParallel: w.cfg.Clients,
		Seed: seed + 1, Runner: tuneRunner,
		Builder: &timedBuilder{inner: service.NopBuilder{}, tr: tr, trace: trace},
	})
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	mark()

	top := simtune.TopK(records, w.size.TopK)
	bestSec, _, err := model.ValidateOnTarget(pipelineGroup, top)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	mark()

	for i, name := range pipelineStages {
		tr.record(name, trace, "", marks[i], marks[i+1])
	}
	tr.record("pass", trace, "", marks[0], marks[len(marks)-1])
	res.WallS = marks[len(marks)-1].Sub(marks[0]).Seconds()
	res.BatchMS = tuneRunner.batchMS

	trained := 0
	for _, g := range model.Dataset.Groups {
		trained += len(g.Impls)
		for i := range g.Impls {
			res.Instr += g.Impls[i].Stats.Total
		}
	}
	for _, r := range records {
		if r.Err != nil || r.Stats == nil {
			res.Failed++
			continue
		}
		res.Instr += r.Stats.Total
	}
	res.Failed += len(groups)*w.size.Impls - trained
	res.Cands = trained + len(records) + len(top)
	res.Attempted = len(groups)*w.size.Impls + len(records) + len(top)

	st, err := srv.Statusz(context.Background())
	if err != nil {
		return nil, err
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if keep {
		w.rtop1 = append(w.rtop1, num.Mean(rtop1))
		w.etop1 = append(w.etop1, num.Mean(etop1))
		w.spearman = append(w.spearman, num.Mean(spearman))
		w.bestUS = append(w.bestUS, bestSec*1e6)
		if w.model == nil {
			w.model, w.records, w.top = model, records, top
		}
		w.localHits += st.CacheHits
		w.localMiss += st.CacheMisses
		distinct := map[string]bool{}
		for _, r := range records {
			distinct[string(schedule.Canonical(r.Steps))] = true
		}
		if n := uint64(len(distinct)); st.CacheMisses > n {
			w.duplicates += st.CacheMisses - n
		}
	}
	return res, nil
}

// verify re-simulates a one-in-eight sample of the first pass's tuning
// records directly and compares the statistics the service delivered.
func (w *pipeline) verify() (int, error) {
	if w.model == nil {
		return 0, fmt.Errorf("no pass was kept")
	}
	factory := func() *te.Workload { return te.ConvGroup(pipelineScale, pipelineGroup) }
	rng := num.NewRNG(w.cfg.Seed ^ 0x5eed)
	caches := hw.Lookup(pipelineArch).Caches
	for i := rng.Intn(8); i < len(w.records); i += 8 {
		r := w.records[i]
		if r.Err != nil || r.Stats == nil {
			continue
		}
		b := runner.LocalBuilder{Arch: pipelineArch}.Build([]runner.MeasureInput{{Factory: factory, Steps: r.Steps}})[0]
		if b.Err != nil {
			return 0, b.Err
		}
		st, err := sim.Run(b.Prog, caches)
		if err != nil {
			return 0, err
		}
		if statsDigest(st) != statsDigest(r.Stats) {
			fmt.Fprintf(w.cfg.Log, "wrong: tuning record %d differs from a direct sim.Run\n", i)
			w.wrong++
		}
	}
	if w.duplicates != 0 {
		fmt.Fprintf(w.cfg.Log, "wrong: the cold service simulated %d candidates twice\n", w.duplicates)
		w.wrong += int(w.duplicates)
	}
	return w.wrong, nil
}

func (w *pipeline) layers(in *layerInput, vals map[string]float64) error {
	sp := in.Spans
	vals["core.rtop1_pct"] = num.Mean(w.rtop1)
	vals["core.etop1_pct"] = num.Mean(w.etop1)
	vals["core.tuned_best_us"] = num.Mean(w.bestUS)
	vals["predictor.spearman"] = num.Mean(w.spearman)
	vals["core.train_s"] = num.Median(sp.durUS["core.train"]) / 1e6
	vals["core.validate_ms"] = num.Median(sp.durUS["core.validate"]) / 1e3
	vals["runner.run_ms_per_batch"] = num.Median(sp.durUS["runner.run"]) / 1e3
	vals["predictor.score_us_per_cand"] = num.Mean(sp.durUS["predictor.score"])
	if n := sp.count("runner.run"); n > 0 {
		vals["ansor.search_self_ms_per_batch"] = sum(sp.selfUS["core.tune"]) / 1e3 / float64(n)
	}
	vals["service.local_miss_share"] = float64(w.localMiss) / float64(w.localHits+w.localMiss)
	vals["service.duplicate_sims"] = float64(w.duplicates)

	// The fit is timed on its own, on the matrix TrainScorePredictor builds.
	ds := w.model.Dataset
	groups := []int{0, 1, 2, 3, 4}
	rng := num.NewRNG(w.cfg.Seed + 7)
	split := ds.Split(rng.Split(), w.size.Impls/4)
	x, y, _, err := core.TrainingMatrix(ds, split, groups)
	if err != nil {
		return err
	}
	pred, err := registry.New(w.size.Predictor, rng.Split())
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := pred.Fit(x, y); err != nil {
		return err
	}
	vals["predictor.fit_ms"] = float64(time.Since(t0)) / 1e6
	impls := 0
	for _, g := range ds.Groups {
		impls += len(g.Impls)
	}
	if gen := vals["core.train_s"] - vals["predictor.fit_ms"]/1e3; gen > 0 {
		vals["core.dataset_impl_per_s"] = float64(impls) / gen
	}
	t0 = time.Now()
	for _, g := range ds.Groups {
		for i := range g.Impls {
			_ = features.FromStats(g.Impls[i].Stats)
		}
	}
	vals["features.from_stats_ns_per_cand"] = float64(time.Since(t0).Nanoseconds()) / float64(impls)

	// The simulator's share, from the statistics the cold service returned.
	var totals simTotals
	for _, r := range w.records {
		if r.Err == nil && r.Stats != nil {
			totals.add(r.Stats)
		}
	}
	totals.fill(vals)
	if totals.cands > 0 {
		vals["sim.run_ms_per_cand"] = totals.wallS * 1e3 / totals.cands
	}

	// The cold-path stages, once more on the records the target re-measured.
	cold := newColdPath()
	factory := func() *te.Workload { return te.ConvGroup(pipelineScale, pipelineGroup) }
	for _, r := range w.top {
		if _, err := cold.run(factory, r.Steps, pipelineArch); err != nil {
			return err
		}
	}
	cold.fill(vals)
	vals["sim.replay_ms_per_cand"] = vals["sim.run_ms_per_cand"] - vals["lower.execute_ms_per_cand"]
	return nil
}
