// Package core implements Contribution II of the paper: the score-predictor
// workflow of Fig. 4. In the training phase (I), the auto-scheduler
// generates implementations per kernel group; each is executed natively on
// the target (here: the hw timing model with the paper's N_exe/cooldown
// measurement methodology) and on the instruction-accurate simulator; the
// resulting (statistics, reference-time) pairs train one predictor per
// architecture and kernel type. In the execution phase (II), the target CPU
// is no longer required: candidates run only on simulators and the trained
// predictor converts statistics to scores through windowed group
// normalization (§III-E).
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/ansor"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// Implementation is one measured schedule of a group: its transform steps,
// the native reference measurement, and the IA-simulator statistics.
type Implementation struct {
	Steps []schedule.Step
	// TrefSec is the median-of-N_exe reference time (paper methodology).
	TrefSec float64
	// TrueSec is the noiseless modelled time (diagnostics/ablations only).
	TrueSec float64
	// NativeElapsedSec is the wall-clock cost of the native measurement
	// including cooldowns (Eq. 4 bookkeeping).
	NativeElapsedSec float64
	// Stats are the instruction-accurate simulator statistics.
	Stats *sim.Stats
	// SimWallSec is the measured wall time of our own simulator run; other
	// groups' builds share the host with it, so it can read above a lone run.
	SimWallSec float64
}

// GroupData holds every implementation generated for one kernel group.
type GroupData struct {
	Group       int
	WorkloadKey string
	Impls       []Implementation
}

// Dataset is the full training corpus of one (architecture, kernel type)
// pair across groups.
type Dataset struct {
	Arch   isa.Arch
	Scale  te.Scale
	Kernel string
	Groups []GroupData
}

// DatasetConfig controls dataset generation.
type DatasetConfig struct {
	Arch  isa.Arch
	Scale te.Scale
	// Groups lists the Table II group indices to include.
	Groups []int
	// ImplsPerGroup is the number of auto-scheduler candidates per group
	// (paper: 500).
	ImplsPerGroup int
	// BatchSize is the auto-scheduler measurement batch.
	BatchSize int
	// NParallel is the simulator parallelism: the groups' searches run
	// concurrently, and at most NParallel candidates simulate at once
	// across all of them (Eq. (4)'s K). Materialize and build steps are
	// not counted against it: each group runs its own beside the others'.
	NParallel int
	// MeasureOpt is the native measurement methodology.
	MeasureOpt hw.MeasureOptions
	// Seed drives every stochastic component.
	Seed uint64
	// FactoryFor optionally overrides the workload built per group index,
	// enabling datasets for other kernel types (matmul, dense, depthwise) —
	// the paper trains one predictor per kernel type (§III-C). The default
	// (nil) builds the Table II conv groups at Scale. Datasets with a custom
	// factory cannot be disk-cached (code is not fingerprintable).
	FactoryFor func(group int) runner.WorkloadFactory `json:"-"`
}

// DualRunner measures each candidate on the timing model ("native") and the
// instruction-accurate simulator in one program execution — the
// training-phase setup of Fig. 4-I where workloads run in both worlds. The
// timing model is the IA simulator plus latencies, so one cache hierarchy
// serves both: hw.Machine reads its miss latencies off the simulator it
// drives and hands back that simulator's statistics. The search score is the
// native reference time, so dataset generation behaves like ordinary
// hardware autotuning. A runner holds one of its NPar slots from machine
// acquisition to release; GenerateDataset gives every group's runner one
// shared budget of slots, so concurrent groups together simulate at most
// NParallel candidates and hold at most NParallel timing machines.
type DualRunner struct {
	Prof hw.Profile
	Opt  hw.MeasureOptions
	NPar int
	rng  *num.RNG
	// slots bounds the candidates simulating at once.
	slots chan struct{}
}

// execute is lower.Execute; tests wrap it to count overlapping simulations.
var execute = lower.Execute

// NewDualRunner builds the training-phase runner.
func NewDualRunner(prof hw.Profile, opt hw.MeasureOptions, nParallel int, rng *num.RNG) *DualRunner {
	if nParallel < 1 {
		nParallel = 1
	}
	return &DualRunner{Prof: prof, Opt: opt, NPar: nParallel, rng: rng, slots: make(chan struct{}, nParallel)}
}

// Name implements runner.Runner.
func (d *DualRunner) Name() string { return "dual[" + string(d.Prof.Arch) + "]" }

// NParallel implements runner.Runner.
func (d *DualRunner) NParallel() int { return d.NPar }

// Run implements runner.Runner.
func (d *DualRunner) Run(inputs []runner.MeasureInput, builds []runner.BuildResult) []runner.MeasureResult {
	out := make([]runner.MeasureResult, len(builds))
	// Pre-draw measurement-noise seeds so parallel execution stays
	// deterministic.
	seeds := make([]uint64, len(builds))
	for i := range seeds {
		seeds[i] = d.rng.Uint64()
	}
	runner.Parallel(d.NPar, len(builds), func(i int) {
		if builds[i].Err != nil {
			out[i] = runner.MeasureResult{Err: builds[i].Err, Score: math.Inf(1)}
			return
		}
		d.slots <- struct{}{}
		defer func() { <-d.slots }()
		// A pooled machine: dataset generation simulates thousands of
		// candidates, so cache hierarchies are re-used via Reset() instead
		// of being rebuilt per candidate.
		hwM, err := hw.AcquireMachine(d.Prof)
		if err != nil {
			out[i] = runner.MeasureResult{Err: err, Score: math.Inf(1)}
			return
		}
		defer hw.ReleaseMachine(hwM)
		start := time.Now()
		execute(builds[i].Prog, hwM, false)
		simWall := time.Since(start).Seconds()
		meas := hw.SampleMeasurement(hwM.Seconds(), hwM.Cycles(), d.Prof, d.Opt, num.NewRNG(seeds[i]))
		st := hwM.Stats()
		st.SimWallSeconds = simWall
		out[i] = runner.MeasureResult{
			Score: meas.TrefSec, TimeSec: meas.TrefSec, Stats: st,
			TrueTimeSec: meas.TrueSec, ElapsedSec: meas.ElapsedSec,
		}
	})
	return out
}

// GenerateDataset runs the training-phase data collection of Fig. 4-I: the
// auto-scheduler explores ImplsPerGroup implementations per group, each
// measured natively and simulated. The groups' searches run concurrently
// under one budget of NParallel simulation slots, so one group's serial
// materialize and build steps and batch tails overlap other groups'
// simulations. Each group draws its RNG streams up front in Groups order, so
// the dataset is bit-identical to searching the groups one after another,
// and a failure reports the first failing group in Groups order. A failing
// group does not stop the others: a failure is known only when a search
// ends, and every search runs to its end before one is reported.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("core: no groups configured")
	}
	prof := hw.Lookup(cfg.Arch)
	rng := num.NewRNG(cfg.Seed)
	ds := &Dataset{Arch: cfg.Arch, Scale: cfg.Scale, Kernel: "conv2d_bias_relu"}
	slots := make(chan struct{}, max(cfg.NParallel, 1))
	factories := make([]runner.WorkloadFactory, len(cfg.Groups))
	records := make([][]ansor.Record, len(cfg.Groups))
	errs := make([]error, len(cfg.Groups))
	var wg sync.WaitGroup
	for i, group := range cfg.Groups {
		factory := runner.WorkloadFactory(func() *te.Workload { return te.ConvGroup(cfg.Scale, group) })
		if cfg.FactoryFor != nil {
			factory = cfg.FactoryFor(group)
			ds.Kernel = factory().Kernel
		}
		opt := ansor.DefaultOptions()
		opt.Trials = cfg.ImplsPerGroup
		opt.BatchSize = cfg.BatchSize
		opt.Builder = runner.LocalBuilder{Arch: cfg.Arch}
		dual := NewDualRunner(prof, cfg.MeasureOpt, cfg.NParallel, rng.Split())
		dual.slots = slots
		opt.Runner = dual
		searchRNG := rng.Split()
		factories[i] = factory
		wg.Add(1)
		go func() {
			defer wg.Done()
			records[i], errs[i] = ansor.Search(factory, opt, searchRNG)
		}()
	}
	wg.Wait()
	for i, group := range cfg.Groups {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: group %d: %w", group, errs[i])
		}
		gd := GroupData{Group: group, WorkloadKey: factories[i]().Key}
		for _, r := range records[i] {
			if r.Err != nil || r.Stats == nil {
				continue
			}
			gd.Impls = append(gd.Impls, Implementation{
				Steps: r.Steps, TrefSec: r.TimeSec, TrueSec: r.TrueTimeSec,
				NativeElapsedSec: r.ElapsedSec, Stats: r.Stats,
				SimWallSec: r.Stats.SimWallSeconds,
			})
		}
		if len(gd.Impls) < 4 {
			return nil, fmt.Errorf("core: group %d produced only %d valid impls", group, len(gd.Impls))
		}
		ds.Groups = append(ds.Groups, gd)
	}
	return ds, nil
}

// GroupByIndex returns the group data with the given Table II index.
func (ds *Dataset) GroupByIndex(group int) (*GroupData, bool) {
	for i := range ds.Groups {
		if ds.Groups[i].Group == group {
			return &ds.Groups[i], true
		}
	}
	return nil, false
}
