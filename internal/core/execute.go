package core

import (
	"fmt"
	"sort"

	"repro/internal/ansor"
	"repro/internal/features"
	"repro/internal/hw"
	"repro/internal/num"
	"repro/internal/predictor"
	"repro/internal/runner"
	"repro/internal/te"
)

// ExecutionOptions configure ExecutionPhase — the Fig. 4-II setting:
// simulator-only tuning of a (possibly unseen) group with a pre-trained
// predictor. The target CPU is not required anymore, "which enables the
// simulation of architectures such as RISC-V on x86 platforms" (§III-C).
type ExecutionOptions struct {
	Scale te.Scale
	// Group is the Table II group to tune.
	Group int
	// Trials and BatchSize drive the auto-scheduler.
	Trials    int
	BatchSize int
	// NParallel simulator instances run concurrently.
	NParallel int
	// Window selects the §III-E group-mean approximation: "static" or
	// "dynamic". StaticW is the static-window width (defaults to
	// BatchSize, the paper's natural choice).
	Window  string
	StaticW int
	// Seed drives the search.
	Seed uint64
	// Runner overrides the default in-process SimulatorRunner — the
	// multi-backend hook a service.ServiceRunner plugs into so tuning runs
	// against a shared simulate server. When the runner implements
	// runner.ScorerSetter the execution phase injects its windowed
	// predictor scorer (both backends do).
	Runner runner.Runner
	// Builder overrides the default LocalBuilder; service backends compile
	// server-side and pair with service.NopBuilder.
	Builder runner.Builder
}

// ExecutionPhase tunes one group on simulators only, scoring candidates with
// the trained predictor through a windowed normalizer. It returns the search
// records ordered as generated.
func ExecutionPhase(prof hw.Profile, pred predictor.Predictor, opt ExecutionOptions) ([]ansor.Record, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("core: execution phase needs positive Trials")
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = 16
	}
	var norm features.Normalizer
	switch opt.Window {
	case "", "dynamic":
		norm = features.NewDynamicWindow()
	case "static":
		w := opt.StaticW
		if w <= 0 {
			w = opt.BatchSize
		}
		norm = features.NewStaticWindow(w)
	default:
		return nil, fmt.Errorf("core: unknown window %q (want static|dynamic)", opt.Window)
	}
	group := opt.Group
	factory := func() *te.Workload { return te.ConvGroup(opt.Scale, group) }
	scorer := &runner.PredictorScorer{Pred: pred, Norm: norm}
	aOpt := ansor.DefaultOptions()
	aOpt.Trials = opt.Trials
	aOpt.BatchSize = opt.BatchSize
	aOpt.Builder = runner.LocalBuilder{Arch: prof.Arch}
	if opt.Builder != nil {
		aOpt.Builder = opt.Builder
	}
	if opt.Runner != nil {
		aOpt.Runner = opt.Runner
		if ss, ok := opt.Runner.(runner.ScorerSetter); ok {
			ss.SetScorer(scorer)
		}
	} else {
		aOpt.Runner = runner.NewSimulatorRunner(prof.Caches, opt.NParallel, scorer)
	}
	return ansor.Search(factory, aOpt, num.NewRNG(opt.Seed))
}

// CacheStats aggregates the simulate-service cache bookkeeping of an
// execution-phase run: how many candidates the result cache absorbed and the
// simulation wall seconds actually spent (cache hits return the original
// run's SimWallSeconds, which must not be double-counted). SimSec is the
// honest T_sim numerator for the Eq. (4) break-even K once a cache absorbs
// work; with the in-process backend every record is a miss and SimSec
// degenerates to the plain sum.
func CacheStats(records []ansor.Record) (hits, misses int, simSec float64) {
	for _, r := range records {
		if r.Err != nil || r.Stats == nil {
			continue
		}
		if r.CacheHit {
			hits++
			continue
		}
		misses++
		simSec += r.Stats.SimWallSeconds
	}
	return hits, misses, simSec
}

// TopK returns the k best-scored successful records (the candidates the
// paper re-executes on the real architecture, §IV: "it is sufficient to
// re-execute the top 2-3% of the predictions later on a real architecture").
// k is clamped to [0, number of successful records].
func TopK(records []ansor.Record, k int) []ansor.Record {
	ok := make([]ansor.Record, 0, len(records))
	for _, r := range records {
		if r.Err == nil {
			ok = append(ok, r)
		}
	}
	sort.SliceStable(ok, func(a, b int) bool { return ok[a].Score < ok[b].Score })
	return ok[:min(max(k, 0), len(ok))]
}

// ValidateOnTarget measures the given records natively (the final
// re-execution step) and returns the best measured time.
func ValidateOnTarget(prof hw.Profile, scale te.Scale, group int, records []ansor.Record, opt hw.MeasureOptions, rng *num.RNG) (best float64, idx int, err error) {
	factory := func() *te.Workload { return te.ConvGroup(scale, group) }
	b := runner.LocalBuilder{Arch: prof.Arch}
	lr := runner.NewLocalRunner(prof, opt, rng)
	inputs := make([]runner.MeasureInput, len(records))
	for i, r := range records {
		inputs[i] = runner.MeasureInput{Factory: factory, Steps: r.Steps}
	}
	results := lr.Run(inputs, b.Build(inputs))
	best, idx = 0, -1
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		if idx < 0 || res.TimeSec < best {
			best, idx = res.TimeSec, i
		}
	}
	if idx < 0 {
		return 0, -1, fmt.Errorf("core: no candidate validated successfully")
	}
	return best, idx, nil
}
