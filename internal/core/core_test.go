package core

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ansor"
	"repro/internal/features"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/predictor"
	"repro/internal/predictor/mlr"
	"repro/internal/predictor/xgb"
	"repro/internal/runner"
	"repro/internal/te"
)

// tinyConfig generates a small but non-trivial dataset quickly.
func tinyConfig(arch isa.Arch, seed uint64) DatasetConfig {
	return DatasetConfig{
		Arch: arch, Scale: te.ScaleTiny,
		Groups:        []int{0, 1, 2},
		ImplsPerGroup: 24, BatchSize: 8, NParallel: 2,
		MeasureOpt: hw.MeasureOptions{Nexe: 5, CooldownSec: 0.1},
		Seed:       seed,
	}
}

// sharedDataset memoizes the test dataset across test functions.
var sharedDS *Dataset

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	if sharedDS != nil {
		return sharedDS
	}
	ds, err := GenerateDataset(tinyConfig(isa.RISCV, 3))
	if err != nil {
		t.Fatal(err)
	}
	sharedDS = ds
	return ds
}

func TestGenerateDatasetShape(t *testing.T) {
	ds := testDataset(t)
	if len(ds.Groups) != 3 {
		t.Fatalf("groups = %d", len(ds.Groups))
	}
	for _, g := range ds.Groups {
		if len(g.Impls) < 16 {
			t.Fatalf("group %d: only %d impls", g.Group, len(g.Impls))
		}
		for _, impl := range g.Impls {
			if impl.TrefSec <= 0 || impl.Stats == nil || impl.Stats.Total == 0 {
				t.Fatalf("group %d: incomplete implementation %+v", g.Group, impl)
			}
			if len(impl.Steps) == 0 {
				t.Fatalf("group %d: missing steps", g.Group)
			}
			if impl.NativeElapsedSec <= 0 || impl.TrueSec <= 0 {
				t.Fatalf("group %d: missing measurement bookkeeping", g.Group)
			}
		}
	}
}

func TestDatasetRunTimesVary(t *testing.T) {
	ds := testDataset(t)
	for _, g := range ds.Groups {
		var times []float64
		for _, impl := range g.Impls {
			times = append(times, impl.TrefSec)
		}
		if num.Std(times)/num.Mean(times) < 0.01 {
			t.Fatalf("group %d: run times suspiciously uniform", g.Group)
		}
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	ds := testDataset(t)
	split := ds.Split(num.NewRNG(1), 6)
	for _, g := range ds.Groups {
		tr, te := split.Train[g.Group], split.Test[g.Group]
		if len(te) != 6 {
			t.Fatalf("test size = %d", len(te))
		}
		if len(tr)+len(te) != len(g.Impls) {
			t.Fatal("split loses implementations")
		}
		seen := map[int]bool{}
		for _, i := range append(append([]int{}, tr...), te...) {
			if seen[i] {
				t.Fatal("split overlaps")
			}
			seen[i] = true
		}
	}
}

func TestTrainingMatrixAndEval(t *testing.T) {
	ds := testDataset(t)
	split := ds.Split(num.NewRNG(2), 6)
	groups := []int{0, 1, 2}
	x, y, norms, err := TrainingMatrix(ds, split, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != len(y) || len(x) == 0 {
		t.Fatalf("matrix %d x %d", len(x), len(y))
	}
	wantDim := features.Dim(3 + 6*3) // riscv: 3 cache levels
	if len(x[0]) != wantDim {
		t.Fatalf("feature dim = %d want %d", len(x[0]), wantDim)
	}
	pred := xgb.New(xgb.DefaultConfig(), num.NewRNG(4))
	if err := pred.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	res, err := EvalGroup(ds, split, 1, pred, norms[1].Norm)
	if err != nil {
		t.Fatal(err)
	}
	// On tiny data we only demand sanity: the metrics exist and the
	// predictor is far better than anti-correlated.
	if math.IsNaN(res.Etop1) || res.Rtop1 <= 0 {
		t.Fatalf("bad metrics: %+v", res)
	}
	if res.Spearman < 0 {
		t.Fatalf("predictor anti-correlated: %+v", res)
	}
}

func TestMedianPredictionEval(t *testing.T) {
	ds := testDataset(t)
	groups := []int{0, 1, 2}
	rng := num.NewRNG(5)
	out, err := MedianPredictionEval(ds,
		func() predictor.Predictor { return mlr.New() },
		groups, 6, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("groups evaluated = %d", len(out))
	}
	for gi, res := range out {
		if math.IsNaN(res.Etop1) || math.IsNaN(res.Qlow) {
			t.Fatalf("group %d: NaN metrics %+v", gi, res)
		}
	}
}

func TestUnseenGroupEvalWithDynamicWindow(t *testing.T) {
	// Train on groups 0,1 — evaluate group 2 with a dynamic window
	// (Fig. 5 d-f setting).
	ds := testDataset(t)
	split := ds.Split(num.NewRNG(7), 6)
	x, y, _, err := TrainingMatrix(ds, split, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	pred := xgb.New(xgb.DefaultConfig(), num.NewRNG(8))
	if err := pred.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	res, err := EvalGroup(ds, split, 2, pred, features.NewDynamicWindow())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Qlow) || math.IsNaN(res.Qhigh) {
		t.Fatalf("NaN metrics: %+v", res)
	}
}

func TestSaveLoadDatasetRoundTrip(t *testing.T) {
	ds := testDataset(t)
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := SaveDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Arch != ds.Arch || len(back.Groups) != len(ds.Groups) {
		t.Fatal("round trip lost structure")
	}
	if back.Groups[0].Impls[0].TrefSec != ds.Groups[0].Impls[0].TrefSec {
		t.Fatal("round trip lost values")
	}
	if back.Groups[0].Impls[0].Stats.Total != ds.Groups[0].Impls[0].Stats.Total {
		t.Fatal("round trip lost stats")
	}
}

func TestCachedDataset(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(isa.RISCV, 99)
	cfg.Groups = []int{0}
	cfg.ImplsPerGroup = 8
	a, err := CachedDataset(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedDataset(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("in-memory cache must return the same pointer")
	}
	// Different seed → different key.
	cfg2 := cfg
	cfg2.Seed = 100
	if configKey(cfg) == configKey(cfg2) {
		t.Fatal("config key must depend on seed")
	}
}

func TestGroupByIndex(t *testing.T) {
	ds := testDataset(t)
	if _, ok := ds.GroupByIndex(1); !ok {
		t.Fatal("group 1 missing")
	}
	if _, ok := ds.GroupByIndex(99); ok {
		t.Fatal("phantom group found")
	}
}

func TestExecutionPhaseAndValidate(t *testing.T) {
	ds := testDataset(t)
	split := ds.Split(num.NewRNG(11), 6)
	x, y, _, err := TrainingMatrix(ds, split, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	pred := xgb.New(xgb.DefaultConfig(), num.NewRNG(12))
	if err := pred.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	prof := hw.Lookup(isa.RISCV)
	records, err := ExecutionPhase(prof, pred, ExecutionOptions{
		Scale: te.ScaleTiny, Group: 1, Trials: 16, BatchSize: 8,
		NParallel: 2, Window: "dynamic", Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 16 {
		t.Fatalf("records = %d", len(records))
	}
	top := TopK(records, 3)
	if len(top) != 3 {
		t.Fatalf("topk = %d", len(top))
	}
	if top[0].Score > top[1].Score || top[1].Score > top[2].Score {
		t.Fatal("TopK not sorted")
	}
	if n := len(TopK(records, -1)); n != 0 {
		t.Fatalf("TopK(records, -1) = %d records, want 0", n)
	}
	var ok int
	for _, r := range records {
		if r.Err == nil {
			ok++
		}
	}
	if n := len(TopK(records, len(records)+5)); n != ok {
		t.Fatalf("TopK(records, len+5) = %d records, want the %d successful ones", n, ok)
	}
	best, idx, err := ValidateOnTarget(prof, te.ScaleTiny, 1, top,
		hw.MeasureOptions{Nexe: 3, CooldownSec: 0.1}, num.NewRNG(14))
	if err != nil {
		t.Fatal(err)
	}
	if best <= 0 || idx < 0 {
		t.Fatalf("validation failed: %v %d", best, idx)
	}
}

func TestExecutionPhaseStaticWindow(t *testing.T) {
	ds := testDataset(t)
	split := ds.Split(num.NewRNG(21), 6)
	x, y, _, err := TrainingMatrix(ds, split, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	pred := mlr.New()
	if err := pred.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	prof := hw.Lookup(isa.RISCV)
	if _, err := ExecutionPhase(prof, pred, ExecutionOptions{
		Scale: te.ScaleTiny, Group: 2, Trials: 8, BatchSize: 4,
		NParallel: 1, Window: "static", StaticW: 4, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutionPhase(prof, pred, ExecutionOptions{
		Scale: te.ScaleTiny, Group: 2, Trials: 8, Window: "bogus", Seed: 1,
	}); err == nil {
		t.Fatal("bogus window must error")
	}
	if _, err := ExecutionPhase(prof, pred, ExecutionOptions{}); err == nil {
		t.Fatal("zero trials must error")
	}
}

func TestDualRunnerDeterministic(t *testing.T) {
	cfg := tinyConfig(isa.ARM, 55)
	cfg.Groups = []int{1, 2}
	cfg.ImplsPerGroup = 8
	a, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameImpls(t, "two runs", a, b)
}

// serialDataset is the loop GenerateDataset replaced: the groups searched one
// after another, each runner with NParallel workers of its own and no budget
// shared with other groups. It is the oracle for the concurrent searches.
func serialDataset(cfg DatasetConfig) (*Dataset, error) {
	prof := hw.Lookup(cfg.Arch)
	rng := num.NewRNG(cfg.Seed)
	ds := &Dataset{Arch: cfg.Arch, Scale: cfg.Scale, Kernel: "conv2d_bias_relu"}
	for _, group := range cfg.Groups {
		factory := func() *te.Workload { return te.ConvGroup(cfg.Scale, group) }
		opt := ansor.DefaultOptions()
		opt.Trials = cfg.ImplsPerGroup
		opt.BatchSize = cfg.BatchSize
		opt.Builder = runner.LocalBuilder{Arch: cfg.Arch}
		opt.Runner = NewDualRunner(prof, cfg.MeasureOpt, cfg.NParallel, rng.Split())
		records, err := ansor.Search(factory, opt, rng.Split())
		if err != nil {
			return nil, fmt.Errorf("core: group %d: %w", group, err)
		}
		gd := GroupData{Group: group, WorkloadKey: factory().Key}
		for _, r := range records {
			if r.Err == nil && r.Stats != nil {
				gd.Impls = append(gd.Impls, Implementation{
					Steps: r.Steps, TrefSec: r.TimeSec, TrueSec: r.TrueTimeSec,
					NativeElapsedSec: r.ElapsedSec, Stats: r.Stats,
				})
			}
		}
		if len(gd.Impls) < 4 {
			return nil, fmt.Errorf("core: group %d produced only %d valid impls", group, len(gd.Impls))
		}
		ds.Groups = append(ds.Groups, gd)
	}
	return ds, nil
}

// sameImpls fails unless two datasets hold the same groups in the same order
// with bit-identical implementations: steps, every measurement, and the
// whole simulator statistics record apart from its wall-clock reading.
func sameImpls(t *testing.T, what string, a, b *Dataset) {
	t.Helper()
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("%s: %d groups vs %d", what, len(a.Groups), len(b.Groups))
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for gi := range a.Groups {
		ga, gb := a.Groups[gi], b.Groups[gi]
		if ga.Group != gb.Group || ga.WorkloadKey != gb.WorkloadKey || len(ga.Impls) != len(gb.Impls) {
			t.Fatalf("%s: group %d (%s, %d impls) vs group %d (%s, %d impls)", what,
				ga.Group, ga.WorkloadKey, len(ga.Impls), gb.Group, gb.WorkloadKey, len(gb.Impls))
		}
		for i := range ga.Impls {
			x, y := ga.Impls[i], gb.Impls[i]
			sx, sy := *x.Stats, *y.Stats
			sx.SimWallSeconds, sy.SimWallSeconds = 0, 0
			if !reflect.DeepEqual(x.Steps, y.Steps) || !same(x.TrefSec, y.TrefSec) ||
				!same(x.TrueSec, y.TrueSec) || !same(x.NativeElapsedSec, y.NativeElapsedSec) ||
				!reflect.DeepEqual(sx, sy) {
				t.Fatalf("%s: group %d impl %d differs:\n%+v %+v\n%+v %+v", what, ga.Group, i, x, sx, y, sy)
			}
		}
	}
}

// watchSimulations wraps every simulation GenerateDataset runs for the rest
// of the test; the returned function reports the most that ran at once
// since its previous call.
func watchSimulations(t *testing.T) func() int64 {
	var cur, peak atomic.Int64
	orig := measure
	measure = func(p *lower.Program, prof hw.Profile, opt hw.MeasureOptions, rng *num.RNG) (hw.Measurement, error) {
		n := cur.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		// Widen each simulation so that overlaps, allowed or not, show.
		time.Sleep(time.Millisecond)
		m, err := orig(p, prof, opt, rng)
		cur.Add(-1)
		return m, err
	}
	t.Cleanup(func() { measure = orig })
	return func() int64 { return peak.Swap(0) }
}

func TestGenerateDatasetConcurrentMatchesSerial(t *testing.T) {
	cfg := tinyConfig(isa.RISCV, 7)
	cfg.Groups = []int{0, 1, 2, 3}
	cfg.ImplsPerGroup = 24
	want, err := serialDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peak := watchSimulations(t)
	for _, par := range []int{1, 3} {
		cfg.NParallel = par
		got, err := GenerateDataset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameImpls(t, fmt.Sprintf("NParallel %d vs serial", par), got, want)
		p := peak()
		if p > int64(par) {
			t.Fatalf("NParallel %d: %d simulations ran at once", par, p)
		}
		if par > 1 && p < 2 {
			t.Fatalf("NParallel %d: simulations never overlapped (peak %d)", par, p)
		}
	}
}

func TestGenerateDatasetErrorNamesFirstGroup(t *testing.T) {
	cfg := tinyConfig(isa.RISCV, 1)
	cfg.Groups = []int{3, 1, 4}
	cfg.ImplsPerGroup = 2
	_, wantErr := serialDataset(cfg)
	if wantErr == nil || !strings.Contains(wantErr.Error(), "group 3 produced only 2 valid impls") {
		t.Fatalf("serial loop: err = %v, want group 3 with 2 valid impls", wantErr)
	}
	before := runtime.NumGoroutine()
	ds, err := GenerateDataset(cfg)
	if ds != nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("GenerateDataset = %v, %v; want the serial loop's error %q", ds, err, wantErr)
	}
	// Finished goroutines may take a moment to leave the count.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after the call (%d before)", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMatmulKernelTypeDataset(t *testing.T) {
	// The pipeline must work for other kernel types (one predictor per
	// kernel type, §III-C): matmul groups of different shapes.
	sizes := [][3]int{{16, 12, 16}, {12, 16, 12}, {20, 8, 16}}
	cfg := DatasetConfig{
		Arch: isa.ARM, Scale: te.ScaleTiny,
		Groups:        []int{0, 1, 2},
		ImplsPerGroup: 16, BatchSize: 8, NParallel: 2,
		MeasureOpt: hw.MeasureOptions{Nexe: 3, CooldownSec: 0.1},
		Seed:       5,
		FactoryFor: func(group int) runner.WorkloadFactory {
			sz := sizes[group]
			return func() *te.Workload { return te.MatMul(sz[0], sz[1], sz[2]) }
		},
	}
	ds, err := CachedDataset(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Kernel != "matmul" {
		t.Fatalf("kernel = %s", ds.Kernel)
	}
	split := ds.Split(num.NewRNG(1), 4)
	x, y, norms, err := TrainingMatrix(ds, split, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	pred := xgb.New(xgb.DefaultConfig(), num.NewRNG(2))
	if err := pred.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	res, err := EvalGroup(ds, split, 1, pred, norms[1].Norm)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Etop1) {
		t.Fatalf("bad metrics %+v", res)
	}
}
