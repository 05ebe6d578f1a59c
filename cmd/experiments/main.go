// Command experiments regenerates every table and figure of the paper's
// evaluation section (§IV). Subcommands:
//
//	table1    Cache sizes and hierarchy of the used CPUs (Table I)
//	table2    Shapes of the Conv2D+Bias+ReLU kernels (Table II)
//	table3    Prediction results, x86 (Table III)
//	table4    Prediction results, ARM (Table IV)
//	table5    Prediction results, RISC-V (Table V)
//	fig5      Sorted run-time predictions, group in/out of training (Fig. 5)
//	speedup   Eq. (4) parallel-simulator break-even analysis
//	generalize  §V future-work extension: cross-CPU generalized predictors
//	ablate    ablations (windows, features, noise, size, tuners)
//	all       everything above
//
// Flags select the scale ("tiny", "small", "paper"), budgets, the dataset
// cache directory and the output CSV path for fig5. -cpuprofile writes a
// pprof CPU profile of the whole run (the profile-capture workflow for the
// ROADMAP hot-spot list is documented in the README).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/te"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "small", "workload scale: tiny|small|paper")
	impls := fs.Int("impls", 0, "implementations per group (0 = scale default)")
	testPer := fs.Int("test", 0, "test implementations per group (0 = scale default)")
	splits := fs.Int("splits", 0, "random train/test re-splits (0 = scale default)")
	nPar := fs.Int("parallel", 4, "parallel simulator instances")
	seed := fs.Uint64("seed", 2025, "random seed")
	cacheDir := fs.String("cache", defaultCacheDir(), "dataset cache directory (empty = off)")
	fig5Group := fs.Int("fig5-group", 3, "group evaluated by fig5")
	csvPath := fs.String("csv", "", "write fig5 series to this CSV file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing subcommand (table1..table5, fig5, speedup, generalize, ablate, all)")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	scale, err := te.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultConfig()
	switch scale {
	case te.ScaleTiny:
		cfg = experiments.TinyConfig()
	case te.ScalePaper:
		cfg = experiments.PaperConfig()
	}
	if *impls > 0 {
		cfg.ImplsPerGroup = *impls
	}
	if *testPer > 0 {
		cfg.TestPerGroup = *testPer
	}
	if *splits > 0 {
		cfg.Splits = *splits
	}
	cfg.NParallel = *nPar
	cfg.Seed = *seed
	cfg.CacheDir = *cacheDir

	w := os.Stdout
	start := time.Now()
	var runOne func(name string) error
	runOne = func(name string) error {
		switch name {
		case "table1":
			experiments.TableI(w)
		case "table2":
			experiments.TableII(w, cfg.Scale)
		case "table3":
			_, err := experiments.TableIII(cfg, w)
			return err
		case "table4":
			_, err := experiments.TableIV(cfg, w)
			return err
		case "table5":
			_, err := experiments.TableV(cfg, w)
			return err
		case "fig5":
			var csvW *os.File
			if *csvPath != "" {
				f, err := os.Create(*csvPath)
				if err != nil {
					return err
				}
				defer f.Close()
				csvW = f
			}
			if csvW != nil {
				_, err := experiments.Fig5(cfg, *fig5Group, w, csvW)
				return err
			}
			_, err := experiments.Fig5(cfg, *fig5Group, w, nil)
			return err
		case "speedup":
			_, _, err := experiments.Speedup(cfg, w)
			return err
		case "generalize":
			_, err := experiments.Generalize(cfg, w)
			return err
		case "ablate":
			for _, arch := range isa.Archs() {
				if _, err := experiments.WindowAblation(cfg, arch, 1, w); err != nil {
					return err
				}
			}
			if _, err := experiments.FeatureAblation(cfg, isa.X86, 1, w); err != nil {
				return err
			}
			if _, err := experiments.NoiseAblation(cfg, isa.X86, w); err != nil {
				return err
			}
			if _, err := experiments.TrainSizeAblation(cfg, isa.RISCV, w); err != nil {
				return err
			}
			_, err := experiments.TunerComparison(cfg, isa.RISCV, 1, 48, w)
			return err
		case "all":
			for _, sub := range []string{"table1", "table2", "table3", "table4",
				"table5", "fig5", "speedup", "generalize", "ablate"} {
				fmt.Fprintf(w, "\n===== %s =====\n", sub)
				if err := runOne(sub); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown subcommand %q", name)
		}
		return nil
	}
	for _, name := range fs.Args() {
		if err := runOne(name); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\n(done in %v, scale=%s, impls/group=%d, splits=%d)\n",
		time.Since(start).Round(time.Millisecond), cfg.Scale, cfg.ImplsPerGroup, cfg.Splits)
	return nil
}

func defaultCacheDir() string {
	return os.TempDir() + "/simtune-cache"
}
