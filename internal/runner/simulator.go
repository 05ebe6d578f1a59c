package runner

import (
	"math"

	"repro/internal/cache"
	"repro/internal/features"
	"repro/internal/predictor"
	"repro/internal/sim"
)

// Scorer converts instruction-accurate simulator statistics into a tuner
// score (Contribution II plugs the trained predictor in here; during the
// training phase a nil scorer collects statistics only).
type Scorer interface {
	Score(st *sim.Stats) float64
}

// PredictorScorer scores statistics with a trained predictor over windowed
// group-normalized features (§III-E): every scored sample is first fed to
// the window normalizer, matching the batch-wise arrival of candidates from
// the auto-scheduler.
type PredictorScorer struct {
	Pred predictor.Predictor
	Norm features.Normalizer
}

// Score implements Scorer. It must be called in candidate order (the
// SimulatorRunner scores sequentially after the parallel simulations
// finish), keeping dynamic-window results deterministic.
func (p *PredictorScorer) Score(st *sim.Stats) float64 {
	s := features.FromStats(st)
	p.Norm.Observe(s)
	return p.Pred.Predict(p.Norm.Vector(s))
}

// ScorerSetter is implemented by runners whose scoring the execution phase
// configures after construction: core.ExecutionPhase builds the windowed
// predictor scorer and injects it into whichever backend (in-process
// SimulatorRunner or remote ServiceRunner) the options selected.
type ScorerSetter interface {
	SetScorer(Scorer)
}

// SimulatorRunner is the paper's SimulatorRunner (Listing 3): it executes
// candidates on NPar parallel instruction-accurate simulator instances
// instead of the target hardware and returns scores.
type SimulatorRunner struct {
	// Caches is the simulated cache geometry (Table I of the target).
	Caches cache.HierarchyConfig
	// NPar is n_parallel: how many simulator instances run concurrently.
	NPar int
	// Scorer converts statistics to scores; nil leaves Score = 0
	// (statistics-only mode used during predictor training).
	Scorer Scorer
}

// NewSimulatorRunner creates a simulator runner with n_parallel instances.
func NewSimulatorRunner(caches cache.HierarchyConfig, nParallel int, scorer Scorer) *SimulatorRunner {
	if nParallel < 1 {
		nParallel = 1
	}
	return &SimulatorRunner{Caches: caches, NPar: nParallel, Scorer: scorer}
}

// Name implements Runner.
func (r *SimulatorRunner) Name() string { return "simulator" }

// SetScorer implements ScorerSetter.
func (r *SimulatorRunner) SetScorer(s Scorer) { r.Scorer = s }

// NParallel implements Runner.
func (r *SimulatorRunner) NParallel() int { return r.NPar }

// Run implements Runner: candidates are simulated concurrently (each on its
// own simulator instance, as in the paper's interface), then scored
// sequentially in input order so window-based normalizers stay
// deterministic. The simulator execution itself goes through the function
// registry so users can override the backend, mirroring Listing 4. The
// default backend draws machines from the sim package's per-configuration
// pool (sim.Acquire/sim.Release inside sim.Run), so a tuning run re-uses
// n_parallel cache hierarchies via Reset() instead of allocating one per
// candidate.
func (r *SimulatorRunner) Run(inputs []MeasureInput, builds []BuildResult) []MeasureResult {
	out := make([]MeasureResult, len(builds))
	exec := func(b BuildResult) (*sim.Stats, error) {
		if fn, ok := LookupFunc(SimulatorRunKey); ok {
			return fn(b.Prog)
		}
		return sim.Run(b.Prog, r.Caches)
	}
	Parallel(r.NPar, len(builds), func(i int) {
		if builds[i].Err != nil {
			out[i] = MeasureResult{Err: builds[i].Err, Score: math.Inf(1)}
			return
		}
		st, err := exec(builds[i])
		if err != nil {
			out[i] = MeasureResult{Err: err, Score: math.Inf(1)}
			return
		}
		out[i] = MeasureResult{Stats: st}
	})
	if r.Scorer != nil {
		for i := range out {
			if out[i].Err == nil && out[i].Stats != nil {
				out[i].Score = r.Scorer.Score(out[i].Stats)
			}
		}
	}
	return out
}
