package runner

import (
	"math"
	"sync"

	"repro/internal/hw"
	"repro/internal/num"
)

// LocalRunner plays the role of native execution on the target hardware
// (Fig. 2): candidates run sequentially (the paper never parallelizes on
// real boards because it would disturb the measurements), each repeated
// N_exe times with cooldowns, and the median becomes both the score and the
// reported run time.
type LocalRunner struct {
	Prof    hw.Profile
	Opt     hw.MeasureOptions
	rng     *num.RNG
	mu      sync.Mutex
	wallSec float64
}

// NewLocalRunner builds a native runner for one target with the paper's
// measurement options.
func NewLocalRunner(prof hw.Profile, opt hw.MeasureOptions, rng *num.RNG) *LocalRunner {
	return &LocalRunner{Prof: prof, Opt: opt, rng: rng}
}

// Name implements Runner.
func (r *LocalRunner) Name() string { return "local[" + string(r.Prof.Arch) + "]" }

// NParallel implements Runner: real hardware measures one candidate at a
// time.
func (r *LocalRunner) NParallel() int { return 1 }

// Run implements Runner.
func (r *LocalRunner) Run(inputs []MeasureInput, builds []BuildResult) []MeasureResult {
	out := make([]MeasureResult, len(builds))
	for i, b := range builds {
		if b.Err != nil {
			out[i] = MeasureResult{Err: b.Err, Score: math.Inf(1)}
			continue
		}
		m, err := hw.Measure(b.Prog, r.Prof, r.Opt, r.rng.Split())
		if err != nil {
			out[i] = MeasureResult{Err: err, Score: math.Inf(1)}
			continue
		}
		r.mu.Lock()
		r.wallSec += m.ElapsedSec
		r.mu.Unlock()
		out[i] = MeasureResult{Score: m.TrefSec, TimeSec: m.TrefSec,
			TrueTimeSec: m.TrueSec, ElapsedSec: m.ElapsedSec}
	}
	return out
}

// WallClockSec reports the accumulated (modelled) wall-clock cost of all
// native measurements so far, including cooldowns — the quantity Eq. (4)
// compares against simulator throughput.
func (r *LocalRunner) WallClockSec() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wallSec
}
