// Package simtune is the public API of this repository: a from-scratch Go
// reproduction of "Introducing Instruction-Accurate Simulators for
// Performance Estimation of Autotuning Workloads" (Pelke et al., DAC 2025).
//
// The library couples an ML-kernel autotuning stack (tensor expressions,
// schedules, AutoTVM-style template tuning and an Ansor-style
// auto-scheduler) with an instruction-accurate simulator (gem5-atomic
// analogue: instruction counts plus a parameterizable cache hierarchy) and
// trainable score predictors (linear regression, DNN, Gaussian-process
// Bayesian optimization, XGBoost) that turn simulator statistics into
// run-time rankings — so that autotuning can run on simulators instead of
// target hardware (paper Contribution I) and instruction-accurate, i.e.
// non-timing, simulators suffice to pick the fastest implementations
// (Contribution II).
//
// Quick start:
//
//	model, _ := simtune.TrainScorePredictor(simtune.TrainOptions{
//	    Arch: simtune.RISCV, Scale: simtune.ScaleSmall, Predictor: "XGBoost",
//	})
//	records, _ := model.TuneGroup(simtune.TuneGroupOptions{Group: 3, Trials: 200})
//	top := simtune.TopK(records, 5) // re-validate these on the real board
//
// See the examples/ directory for runnable programs and cmd/experiments for
// the paper's tables and figures.
package simtune

import (
	"fmt"
	"io"

	"repro/internal/ansor"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/num"
	"repro/internal/predictor"
	"repro/internal/predictor/registry"
	"repro/internal/service"
	"repro/internal/te"
)

// Arch identifies a target architecture.
type Arch = isa.Arch

// The three evaluated targets of the paper.
const (
	X86   = isa.X86
	ARM   = isa.ARM
	RISCV = isa.RISCV
)

// Archs lists all targets in paper order.
func Archs() []Arch { return isa.Archs() }

// Scale selects workload sizing (see te.Scale).
type Scale = te.Scale

// Available scales.
const (
	ScaleTiny  = te.ScaleTiny
	ScaleSmall = te.ScaleSmall
	ScalePaper = te.ScalePaper
)

// Metrics re-exports the paper's evaluation metrics.
type Metrics = metrics.Result

// Dataset is the training corpus of one (architecture, kernel type) pair.
type Dataset = core.Dataset

// Record is one auto-scheduler candidate measurement.
type Record = ansor.Record

// Predictor is a trainable score model.
type Predictor = predictor.Predictor

// PredictorNames lists the four paper predictors.
func PredictorNames() []string { return registry.Names() }

// TrainOptions configure TrainScorePredictor.
type TrainOptions struct {
	// Arch is the target CPU (x86/arm/riscv).
	Arch Arch
	// Scale sizes the Table II conv groups (default: small).
	Scale Scale
	// Predictor is one of PredictorNames() (default: "XGBoost").
	Predictor string
	// Groups are the Table II groups used for training (default: all five).
	Groups []int
	// ImplsPerGroup is the auto-scheduler budget per group (default 80;
	// paper: 500).
	ImplsPerGroup int
	// TestPerGroup implementations are held out per group for Evaluate
	// (default: ImplsPerGroup/4; paper: 100).
	TestPerGroup int
	// NParallel simulator instances run concurrently (default 4).
	NParallel int
	// Seed drives all randomness (default 1).
	Seed uint64
	// CacheDir persists the generated dataset across runs (optional).
	CacheDir string
}

func (o *TrainOptions) defaults() {
	if o.Scale == "" {
		o.Scale = ScaleSmall
	}
	if o.Predictor == "" {
		o.Predictor = "XGBoost"
	}
	if len(o.Groups) == 0 {
		o.Groups = []int{0, 1, 2, 3, 4}
	}
	if o.ImplsPerGroup <= 0 {
		o.ImplsPerGroup = 80
	}
	if o.TestPerGroup <= 0 {
		o.TestPerGroup = o.ImplsPerGroup / 4
	}
	if o.NParallel <= 0 {
		o.NParallel = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// TrainedModel is a score predictor trained for one architecture and kernel
// type (Fig. 4-I output) together with its training corpus.
type TrainedModel struct {
	Arch    Arch
	Scale   Scale
	Pred    Predictor
	Dataset *Dataset

	split core.SplitIndices
	norms map[int]core.GroupNorm
	opts  TrainOptions

	lastRunner *service.ServiceRunner
}

// TrainScorePredictor runs the paper's training phase: generate the dataset
// (auto-scheduler implementations measured natively and simulated), then fit
// the chosen predictor on group-normalized features and run times.
func TrainScorePredictor(opts TrainOptions) (*TrainedModel, error) {
	opts.defaults()
	if opts.Arch == "" {
		return nil, fmt.Errorf("simtune: TrainOptions.Arch is required")
	}
	cfg := core.DatasetConfig{
		Arch: opts.Arch, Scale: opts.Scale, Groups: opts.Groups,
		ImplsPerGroup: opts.ImplsPerGroup, BatchSize: 16,
		NParallel: opts.NParallel, MeasureOpt: hw.DefaultMeasureOptions(),
		Seed: opts.Seed,
	}
	if opts.Scale == ScaleTiny {
		cfg.MeasureOpt = hw.MeasureOptions{Nexe: 5, CooldownSec: 0.1}
		cfg.BatchSize = 8
	}
	ds, err := core.CachedDataset(cfg, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	rng := num.NewRNG(opts.Seed + 7)
	split := ds.Split(rng.Split(), opts.TestPerGroup)
	x, y, norms, err := core.TrainingMatrix(ds, split, opts.Groups)
	if err != nil {
		return nil, err
	}
	pred, err := registry.New(opts.Predictor, rng.Split())
	if err != nil {
		return nil, err
	}
	if err := pred.Fit(x, y); err != nil {
		return nil, err
	}
	return &TrainedModel{
		Arch: opts.Arch, Scale: opts.Scale, Pred: pred, Dataset: ds,
		split: split, norms: norms, opts: opts,
	}, nil
}

// Evaluate computes the paper metrics on the held-out test split of one
// training group (oracle group means, the Tables III–V setting).
func (m *TrainedModel) Evaluate(group int) (Metrics, error) {
	gn, ok := m.norms[group]
	if !ok {
		return Metrics{}, fmt.Errorf("simtune: group %d was not in the training set", group)
	}
	return core.EvalGroup(m.Dataset, m.split, group, m.Pred, gn.Norm)
}

// EvaluateUnseen scores one group's held-out samples with a dynamic window,
// the setting for groups that never appeared in training (Fig. 5 d–f).
func (m *TrainedModel) EvaluateUnseen(group int) (Metrics, error) {
	return core.EvalGroup(m.Dataset, m.split, group, m.Pred, features.NewDynamicWindow())
}

// TuneGroupOptions configure the execution phase on a trained model.
type TuneGroupOptions struct {
	// Group is the Table II group to tune.
	Group int
	// Trials is the auto-scheduler budget.
	Trials int
	// BatchSize is the measurement batch (default 16).
	BatchSize int
	// NParallel simulator instances (default: the training setting).
	NParallel int
	// Window is "dynamic" (default) or "static".
	Window string
	// Seed drives the search (default: training seed + 1).
	Seed uint64
	// ServerURL switches the backend from in-process simulators to a
	// remote simulate service, e.g. "http://tuner-farm:8070". The URL may
	// point at a single server ("simtune serve") or, transparently, at a
	// consistent-hash routing tier over many servers ("simtune route") —
	// the wire protocol is identical. Candidates then travel as step logs,
	// are compiled and simulated server-side, and identical candidates —
	// from this run or any other client — are served from the fleet's
	// content-addressed result cache (each key owned by exactly one node).
	// Servers started with -cache-dir keep that cache across restarts, so
	// even a freshly restarted fleet absorbs previously tuned candidates.
	// Statistics are bit-identical to the in-process backend.
	ServerURL string
	// ServerRetries bounds re-submissions of a batch that failed with a
	// retryable service error — a restarting server, a router briefly
	// without live nodes (default 2; negative disables). Only meaningful
	// with ServerURL.
	ServerRetries int
}

// TuneGroup runs the execution phase of Fig. 4-II: simulator-only tuning of
// a group with the trained predictor; the target CPU is not required.
func (m *TrainedModel) TuneGroup(opts TuneGroupOptions) ([]Record, error) {
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("simtune: TuneGroupOptions.Trials is required")
	}
	if opts.NParallel <= 0 {
		opts.NParallel = m.opts.NParallel
	}
	if opts.Seed == 0 {
		opts.Seed = m.opts.Seed + 1
	}
	eOpt := core.ExecutionOptions{
		Scale: m.Scale, Group: opts.Group, Trials: opts.Trials,
		BatchSize: opts.BatchSize, NParallel: opts.NParallel,
		Window: opts.Window, Seed: opts.Seed,
	}
	if opts.ServerURL != "" {
		runner := &service.ServiceRunner{
			Backend:  service.NewClient(opts.ServerURL),
			Arch:     m.Arch,
			Workload: service.ConvGroupSpec(m.Scale, opts.Group),
			NPar:     opts.NParallel,
			Retries:  opts.ServerRetries,
		}
		m.lastRunner = runner
		eOpt.Runner = runner
		eOpt.Builder = service.NopBuilder{}
	}
	return core.ExecutionPhase(hw.Lookup(m.Arch), m.Pred, eOpt)
}

// ServiceStats is the remote-backend client's own telemetry: batch attempts
// (including retries), how often the retry loop engaged, total backoff slept,
// and the per-attempt request latency histogram. It complements CacheStats,
// which describes what the fleet did; ServiceStats describes what this client
// experienced getting there.
type ServiceStats = service.ClientTelemetry

// ServiceStats reports the client telemetry of the most recent TuneGroup call
// that used ServerURL. The second return is false when no remote tuning has
// run on this model (in-process backends have no client tier to report on).
func (m *TrainedModel) ServiceStats() (ServiceStats, bool) {
	if m.lastRunner == nil {
		return ServiceStats{}, false
	}
	return m.lastRunner.Telemetry(), true
}

// CacheStats aggregates simulate-service cache bookkeeping over tuning
// records: cache hits, misses, and the simulation wall seconds actually
// spent (hits are free). With the in-process backend every record is a miss.
func CacheStats(records []Record) (hits, misses int, simSec float64) {
	return core.CacheStats(records)
}

// ValidateOnTarget re-measures the given records "natively" (on the timing
// model standing in for the board) and returns the best time and its index —
// the final step the paper recommends for the top 2–3% of predictions.
func (m *TrainedModel) ValidateOnTarget(group int, records []Record) (bestSec float64, idx int, err error) {
	return core.ValidateOnTarget(hw.Lookup(m.Arch), m.Scale, group, records,
		hw.DefaultMeasureOptions(), num.NewRNG(m.opts.Seed+99))
}

// TopK returns the k best-scored successful records.
func TopK(records []Record, k int) []Record { return core.TopK(records, k) }

// HardwareProfile returns the modelled CPU profile (Table I caches, clock,
// timing parameters) of an architecture.
func HardwareProfile(arch Arch) hw.Profile { return hw.Lookup(arch) }

// ConvGroupWorkload builds the Table II Conv2D+Bias+ReLU workload of a group
// at a scale (fresh tensors per call).
func ConvGroupWorkload(scale Scale, group int) *te.Workload { return te.ConvGroup(scale, group) }

// SavePredictor serializes a trained predictor so the execution phase can
// run on machines that never measure the target board (gob format).
func SavePredictor(p Predictor, w io.Writer) error { return registry.Save(p, w) }

// LoadPredictor restores a predictor saved with SavePredictor.
func LoadPredictor(r io.Reader) (Predictor, error) { return registry.Load(r) }
