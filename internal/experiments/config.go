// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): Table I (cache hierarchies), Table II (kernel shapes),
// Tables III-V (predictor comparison per architecture), Fig. 5 (sorted
// run-time predictions with/without the evaluated group in training), the
// Eq. (4) parallel-simulator break-even analysis, and the ablations
// (windows, features, noise, dataset size, tuners). Output is aligned text
// plus optional CSV.
package experiments

import (
	"io"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/te"
)

// Config scales an experiment run.
type Config struct {
	// Scale selects workload sizing (tiny/small/paper).
	Scale te.Scale
	// ImplsPerGroup is the auto-scheduler budget per group (paper: 500).
	ImplsPerGroup int
	// TestPerGroup is the held-out count per group (paper: 100).
	TestPerGroup int
	// Splits is the number of random train/test re-splits (paper: 10).
	Splits int
	// BatchSize is the auto-scheduler measurement batch.
	BatchSize int
	// NParallel simulator instances run concurrently.
	NParallel int
	// Seed drives all randomness.
	Seed uint64
	// CacheDir persists generated datasets between runs ("" = no disk
	// cache).
	CacheDir string
}

// DefaultConfig is the small-scale setup used by the benchmark harness and
// EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Scale:         te.ScaleSmall,
		ImplsPerGroup: 80,
		TestPerGroup:  20,
		Splits:        5,
		BatchSize:     16,
		NParallel:     4,
		Seed:          2025,
	}
}

// TinyConfig is the unit-test setup.
func TinyConfig() Config {
	return Config{
		Scale:         te.ScaleTiny,
		ImplsPerGroup: 24,
		TestPerGroup:  6,
		Splits:        2,
		BatchSize:     8,
		NParallel:     2,
		Seed:          7,
	}
}

// PaperConfig is the full-fidelity setup (hours of CPU time on one core).
func PaperConfig() Config {
	return Config{
		Scale:         te.ScalePaper,
		ImplsPerGroup: 500,
		TestPerGroup:  100,
		Splits:        10,
		BatchSize:     64,
		NParallel:     16,
		Seed:          2025,
	}
}

// datasetConfig maps an experiment config to a dataset config for one arch.
func (c Config) datasetConfig(arch isa.Arch) core.DatasetConfig {
	opt := hw.DefaultMeasureOptions()
	if c.Scale == te.ScaleTiny {
		opt = hw.MeasureOptions{Nexe: 5, CooldownSec: 0.1}
	}
	return core.DatasetConfig{
		Arch: arch, Scale: c.Scale,
		Groups:        []int{0, 1, 2, 3, 4},
		ImplsPerGroup: c.ImplsPerGroup,
		BatchSize:     c.BatchSize,
		NParallel:     c.NParallel,
		MeasureOpt:    opt,
		Seed:          c.Seed,
	}
}

// Dataset returns the (cached) corpus for one architecture.
func (c Config) Dataset(arch isa.Arch) (*core.Dataset, error) {
	return core.CachedDataset(c.datasetConfig(arch), c.CacheDir)
}

// line writes a line to w, ignoring write errors (best-effort reporting).
func line(w io.Writer, format string, args ...interface{}) {
	fprintf(w, format+"\n", args...)
}
