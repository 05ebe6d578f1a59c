// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§IV), plus ablations and substrate micro-benchmarks.
//
//	go test -bench=. -benchmem
//
// Tables III–V, Fig. 5, Eq. (4) and the ablations run at the "small" scale
// (te.ScaleSmall) with a shared, cached dataset per architecture; paper-scale
// runs are available through cmd/experiments -scale=paper. Reported custom
// metrics (b.ReportMetric) carry the table values: Rtop1/Etop1 percentages,
// K ranges, hit rates.
package simtune_test

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/metrics"
	"repro/internal/num"
	"repro/internal/predictor/registry"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// benchConfig is the shared small-scale experiment configuration. The
// dataset cache (in-memory + temp dir) makes the per-arch corpus a one-time
// cost across all benchmarks of a run.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Splits = 3
	cfg.CacheDir = os.TempDir() + "/simtune-bench-cache"
	return cfg
}

// BenchmarkTableI_CacheHierarchies instantiates the Table I hierarchies and
// drives a fixed blocked-matmul access trace through each, reporting L1D hit
// rates — the configuration data behind Table I, exercised end to end.
func BenchmarkTableI_CacheHierarchies(b *testing.B) {
	wl := te.MatMul(64, 64, 64)
	prog, err := lower.Build(schedule.New(wl.Op), isa.Lookup(isa.X86))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, prof := range hw.Profiles() {
			st, err := sim.Run(prog, prof.Caches)
			if err != nil {
				b.Fatal(err)
			}
			l1d, _ := st.Cache("L1D")
			b.ReportMetric(100*float64(l1d.ReadHits())/float64(l1d.ReadAccesses()),
				string(prof.Arch)+"_L1D_hit%")
		}
	}
	experiments.TableI(io.Discard)
}

// BenchmarkTableII_Workloads builds every Table II group at paper scale and
// lowers a default schedule, reporting total MACs.
func BenchmarkTableII_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var macs int64
		for g := 0; g < te.NumConvGroups; g++ {
			wl := te.ConvGroup(te.ScalePaper, g)
			if _, err := lower.Build(schedule.New(wl.Op), isa.Lookup(isa.ARM)); err != nil {
				b.Fatal(err)
			}
			macs += wl.Op.MACs()
		}
		b.ReportMetric(float64(macs), "paper_MACs")
	}
}

// predictionTableBench runs one of Tables III–V and reports the per-
// predictor mean Rtop1 and Etop1 across groups.
func predictionTableBench(b *testing.B, arch isa.Arch) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.PredictionResults(cfg, arch)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range registry.Names() {
			meanR, _ := tab.Summary(name, func(r metrics.Result) float64 { return r.Rtop1 })
			meanE, _ := tab.Summary(name, func(r metrics.Result) float64 { return r.Etop1 })
			b.ReportMetric(meanR, name+"_Rtop1%")
			b.ReportMetric(meanE, name+"_Etop1%")
		}
	}
}

// BenchmarkTableIII_PredictorsX86 reproduces Table III (x86).
func BenchmarkTableIII_PredictorsX86(b *testing.B) { predictionTableBench(b, isa.X86) }

// BenchmarkTableIV_PredictorsARM reproduces Table IV (ARM).
func BenchmarkTableIV_PredictorsARM(b *testing.B) { predictionTableBench(b, isa.ARM) }

// BenchmarkTableV_PredictorsRISCV reproduces Table V (RISC-V).
func BenchmarkTableV_PredictorsRISCV(b *testing.B) { predictionTableBench(b, isa.RISCV) }

// BenchmarkFig5_GroupHoldout reproduces Figure 5: Bayes predictions for
// group 3 with the group included vs excluded from training, per
// architecture, reporting the excluded-case Rtop1.
func BenchmarkFig5_GroupHoldout(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Fig5(cfg, 3, io.Discard, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range panels {
			tag := string(p.Arch) + "_incl"
			if !p.Included {
				tag = string(p.Arch) + "_excl"
			}
			b.ReportMetric(p.Metrics.Rtop1, tag+"_Rtop1%")
		}
	}
}

// BenchmarkEq4_Speedup reproduces the Eq. (4) analysis, reporting the
// per-architecture K ranges (paper: x86 [7,97], ARM [4,31], RISC-V [3,21]).
func BenchmarkEq4_Speedup(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		_, sums, err := experiments.Speedup(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sums {
			b.ReportMetric(float64(s.KMin), string(s.Arch)+"_Kmin")
			b.ReportMetric(float64(s.KMax), string(s.Arch)+"_Kmax")
		}
	}
}

// BenchmarkAblationWindows compares oracle/static/dynamic normalization
// (§III-E claim: no accuracy loss from windows).
func BenchmarkAblationWindows(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WindowAblation(cfg, isa.ARM, 1, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Result.Rtop1, r.Window+"_Rtop1%")
		}
	}
}

// BenchmarkAblationFeatures compares feature subsets (§III-D claim: raw +
// normalized is the most promising input).
func BenchmarkAblationFeatures(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FeatureAblation(cfg, isa.ARM, 1, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			tag := strings.ReplaceAll(strings.Fields(r.Features)[0], "(", "")
			b.ReportMetric(r.Result.Spearman, tag+"_rho")
		}
	}
}

// BenchmarkAblationNoise quantifies reference-measurement noise vs ranking
// quality (why the paper repeats 15× with cooldowns and medians).
func BenchmarkAblationNoise(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NoiseAblation(cfg, isa.X86, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTrainSize sweeps the per-group training budget.
func BenchmarkAblationTrainSize(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TrainSizeAblation(cfg, isa.RISCV, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTuners compares AutoTVM tuners under a fixed trial
// budget.
func BenchmarkAblationTuners(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TunerComparison(cfg, isa.RISCV, 1, 48, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.BestTref*1e6, r.Tuner+"_best_us")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkTimingModel measures the cycle-approximate back-end.
func BenchmarkTimingModel(b *testing.B) {
	wl := te.ConvGroup(te.ScaleSmall, 1)
	prog, err := lower.Build(schedule.New(wl.Op), isa.Lookup(isa.ARM))
	if err != nil {
		b.Fatal(err)
	}
	prof := hw.Lookup(isa.ARM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := hw.NewMachine(prof)
		if err != nil {
			b.Fatal(err)
		}
		lower.Execute(prog, m, false)
	}
}

// BenchmarkCacheAccess measures raw cache-simulator throughput.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := num.NewRNG(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], 4, i%4 == 0)
	}
}

// BenchmarkPredictorFit measures training cost of each predictor on a
// realistic feature matrix.
func BenchmarkPredictorFit(b *testing.B) {
	rng := num.NewRNG(9)
	n, d := 300, 43
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = row[0]*2 + row[1]*row[2]
	}
	for _, name := range registry.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := registry.MustNew(name, num.NewRNG(uint64(i)))
				if err := p.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLowerBuild measures schedule-to-program compilation.
func BenchmarkLowerBuild(b *testing.B) {
	model := isa.Lookup(isa.X86)
	for i := 0; i < b.N; i++ {
		wl := te.ConvGroup(te.ScaleSmall, 2)
		if _, err := lower.Build(schedule.New(wl.Op), model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneralizedPredictor reproduces the §V future-work extension:
// predictors trained on two architectures, applied to the untested third.
func BenchmarkGeneralizedPredictor(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Generalize(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Rtop1, string(r.Target)+"_"+r.Mode+"_Rtop1%")
		}
	}
}
