package hw

import (
	"math"
	"time"

	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/sim"
)

// MeasureOptions replicate the paper's measurement methodology (§IV):
// every implementation is executed N_exe = 15 times with a 1 s cooldown
// between repetitions, and the median is taken as the reference time t_ref.
type MeasureOptions struct {
	// Nexe is the number of repetitions (paper: 15).
	Nexe int
	// CooldownSec is the pause between repetitions (paper: 1 s).
	CooldownSec float64
}

// DefaultMeasureOptions returns the paper's setup.
func DefaultMeasureOptions() MeasureOptions {
	return MeasureOptions{Nexe: 15, CooldownSec: 1.0}
}

// Measurement is the outcome of benchmarking one implementation "natively".
type Measurement struct {
	// TrueSec is the noiseless modelled run time (not observable on real
	// hardware; kept for diagnostics and ablations).
	TrueSec float64
	// Samples are the noisy per-repetition observations.
	Samples []float64
	// TrefSec is the median of Samples — the paper's reference time.
	TrefSec float64
	// ElapsedSec is the wall-clock cost of the whole measurement including
	// cooldowns, Σ(t_cooldown + t_i); the Eq. (4) analysis compares this
	// against simulator throughput.
	ElapsedSec float64
	// Stats are the instruction-accurate statistics of the same run, with
	// SimWallSeconds the host time of the execution alone. Only Measure
	// sets them.
	Stats *sim.Stats
}

// Measure executes the program once on a pooled timing machine — which is
// the instruction-accurate simulator plus latencies, so the one run yields
// both the reference time and the simulator's statistics — and then samples
// Nexe noisy repetitions. Noise is multiplicative log-normal with a
// short-run-dependent sigma — faster platforms (x86) produce noisier
// references, as the paper observes in §IV-A — plus occasional positive
// outliers modelling background system load. All randomness comes from rng.
func Measure(p *lower.Program, prof Profile, opt MeasureOptions, rng *num.RNG) (Measurement, error) {
	m, err := AcquireMachine(prof)
	if err != nil {
		return Measurement{}, err
	}
	defer ReleaseMachine(m)
	start := time.Now()
	lower.Execute(p, m, false)
	simWall := time.Since(start).Seconds()
	res := SampleMeasurement(m.Seconds(), prof, opt, rng)
	res.Stats = m.Stats()
	res.Stats.SimWallSeconds = simWall
	return res, nil
}

// SampleMeasurement draws the noisy repetitions around a known true time.
// Split out so ablations can re-sample without re-simulating.
func SampleMeasurement(trueSec float64, prof Profile, opt MeasureOptions, rng *num.RNG) Measurement {
	t := prof.Timing
	res := Measurement{TrueSec: trueSec}
	sigma := t.NoiseBase + t.NoiseShort/(1+trueSec/t.NoiseRefSec)
	res.Samples = make([]float64, opt.Nexe)
	for i := range res.Samples {
		s := trueSec * rng.LogNormal(0, sigma)
		if rng.Float64() < t.OutlierProb {
			s *= 1 + rng.Uniform(0, t.OutlierScale)
		}
		res.Samples[i] = s
		res.ElapsedSec += opt.CooldownSec + s
	}
	res.TrefSec = num.Median(res.Samples)
	return res
}

// ParallelSimulators computes K of Eq. (4): the number of simulator
// instances that must run in parallel for simulation to beat native
// (sequential) measurement of one implementation.
//
//	K = ceil(t_simulator / ((t_cooldown + t_ref) · N_exe))
func ParallelSimulators(simSec, trefSec float64, opt MeasureOptions) int {
	denom := (opt.CooldownSec + trefSec) * float64(opt.Nexe)
	if denom <= 0 {
		return 1
	}
	k := int(math.Ceil(simSec / denom))
	if k < 1 {
		k = 1
	}
	return k
}

// SimSeconds models the wall time a gem5-atomic-class simulator needs for a
// program with the given instruction count on this profile's ISA.
func SimSeconds(instructions int64, prof Profile) float64 {
	return float64(instructions) / (prof.SimMIPS * 1e6)
}
