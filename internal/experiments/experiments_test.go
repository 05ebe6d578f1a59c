package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/te"
)

func TestTableI(t *testing.T) {
	var buf bytes.Buffer
	TableI(&buf)
	out := buf.String()
	for _, want := range []string{"x86", "arm", "riscv", "L1D", "L3", "32768"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
	// ARM/RISC-V must show no L3.
	if strings.Count(out, "| -") == 0 {
		t.Fatalf("missing L3 dashes for embedded CPUs:\n%s", out)
	}
}

func TestTableII(t *testing.T) {
	var buf bytes.Buffer
	TableII(&buf, te.ScaleTiny)
	out := buf.String()
	if !strings.Contains(out, "group") || !strings.Contains(out, "MACs") {
		t.Fatalf("Table II malformed:\n%s", out)
	}
	// Paper reference block must include the ResNet stem shape.
	if !strings.Contains(out, "224") {
		t.Fatalf("Table II must show paper shapes:\n%s", out)
	}
}

func TestPredictionResultsTiny(t *testing.T) {
	cfg := TinyConfig()
	tab, err := PredictionResults(cfg, isa.RISCV)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Groups) != 5 {
		t.Fatalf("groups = %d", len(tab.Groups))
	}
	if len(tab.Results) != 4 {
		t.Fatalf("predictors = %d", len(tab.Results))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "XGBoost") {
		t.Fatalf("render missing predictors:\n%s", buf.String())
	}
	mean, worst := tab.Summary("LinReg", func(r metrics.Result) float64 { return r.Rtop1 })
	if mean <= 0 || worst < mean {
		t.Fatalf("summary wrong: mean=%v worst=%v", mean, worst)
	}
}

func TestFig5Tiny(t *testing.T) {
	cfg := TinyConfig()
	var buf, csv bytes.Buffer
	panels, err := Fig5(cfg, 2, &buf, &csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 { // 3 archs × {included, excluded}
		t.Fatalf("panels = %d want 6", len(panels))
	}
	for _, p := range panels {
		if len(p.RefSorted) != len(p.PredOrder) || len(p.RefSorted) == 0 {
			t.Fatalf("panel series mismatch: %d vs %d", len(p.RefSorted), len(p.PredOrder))
		}
		// RefSorted must be ascending.
		for i := 1; i < len(p.RefSorted); i++ {
			if p.RefSorted[i] < p.RefSorted[i-1] {
				t.Fatal("RefSorted not sorted")
			}
		}
	}
	if !strings.Contains(buf.String(), "t_ref") {
		t.Fatal("plot legend missing")
	}
	if !strings.Contains(csv.String(), "tref_x86_incltrue") {
		t.Fatalf("csv headers missing:\n%s", csv.String()[:120])
	}
}

func TestSpeedupTiny(t *testing.T) {
	cfg := TinyConfig()
	var buf bytes.Buffer
	rows, sums, err := Speedup(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if len(rows) == 0 {
		t.Fatal("no speedup rows")
	}
	for _, s := range sums {
		if s.KMin < 1 || s.KMax < s.KMin {
			t.Fatalf("bad K range: %+v", s)
		}
	}
	if !strings.Contains(buf.String(), "K_x86") {
		t.Fatal("summary lines missing")
	}
}

func TestWindowAblationTiny(t *testing.T) {
	cfg := TinyConfig()
	var buf bytes.Buffer
	rows, err := WindowAblation(cfg, isa.RISCV, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("window rows = %d", len(rows))
	}
	names := rows[0].Window + rows[1].Window + rows[2].Window
	if !strings.Contains(names, "oracle") || !strings.Contains(names, "dynamic") {
		t.Fatalf("window names wrong: %v", names)
	}
}

func TestFeatureAblationTiny(t *testing.T) {
	cfg := TinyConfig()
	rows, err := FeatureAblation(cfg, isa.RISCV, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("feature rows = %d", len(rows))
	}
}

func TestNoiseAblationTiny(t *testing.T) {
	cfg := TinyConfig()
	rows, err := NoiseAblation(cfg, isa.RISCV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("noise rows = %d", len(rows))
	}
	// Noiseless references should rank the truth at least as well as 4x
	// noise with a single repetition.
	var clean, noisy float64
	for _, r := range rows {
		if r.NoiseScale == 0 {
			clean = r.Spearman
		}
		if r.NoiseScale == 4 && r.Nexe == 1 {
			noisy = r.Spearman
		}
	}
	if clean < noisy-0.15 {
		t.Fatalf("noise ablation implausible: clean %.3f vs noisy %.3f", clean, noisy)
	}
}

func TestTrainSizeAblationTiny(t *testing.T) {
	cfg := TinyConfig()
	rows, err := TrainSizeAblation(cfg, isa.RISCV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("train-size rows = %d", len(rows))
	}
	if rows[len(rows)-1].PerGroup <= rows[0].PerGroup {
		t.Fatal("sizes not increasing")
	}
}

func TestTunerComparisonTiny(t *testing.T) {
	cfg := TinyConfig()
	var buf bytes.Buffer
	rows, err := TunerComparison(cfg, isa.RISCV, 1, 24, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("tuner rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BestTref <= 0 {
			t.Fatalf("tuner %s found nothing", r.Tuner)
		}
	}
}

func TestRenderHelpers(t *testing.T) {
	var buf bytes.Buffer
	renderTable(&buf, []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	out := buf.String()
	if !strings.Contains(out, "333") || !strings.Contains(out, "|") {
		t.Fatalf("table render broken:\n%s", out)
	}
	buf.Reset()
	asciiPlot(&buf, "t", []float64{1, 2, 3}, []float64{1, 3, 2})
	if !strings.Contains(buf.String(), "t_ref") {
		t.Fatal("plot render broken")
	}
	buf.Reset()
	asciiPlot(&buf, "empty", nil, nil)
	if !strings.Contains(buf.String(), "empty series") {
		t.Fatal("empty plot case broken")
	}
	buf.Reset()
	writeCSV(&buf, []string{"x", "y"}, [][]float64{{1, 2}, {3}})
	if !strings.HasPrefix(buf.String(), "x,y\n1,3\n2,\n") {
		t.Fatalf("csv broken:\n%q", buf.String())
	}
}

func TestGeneralizeTiny(t *testing.T) {
	cfg := TinyConfig()
	var buf bytes.Buffer
	rows, err := Generalize(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 targets × {same, cross}
		t.Fatalf("rows = %d want 6", len(rows))
	}
	modes := map[string]int{}
	for _, r := range rows {
		modes[r.Mode]++
		if r.Spearman < -1 || r.Spearman > 1 {
			t.Fatalf("bad spearman: %+v", r)
		}
	}
	if modes["same-arch"] != 3 || modes["cross-arch"] != 3 {
		t.Fatalf("mode counts: %v", modes)
	}
	if !strings.Contains(buf.String(), "cross-arch") {
		t.Fatal("render missing")
	}
}

// TestGeneralizeDeterministic: the XGBoost fits subsample their rows, so the
// rows must reach them in one order on every run for one seed to give one
// table.
func TestGeneralizeDeterministic(t *testing.T) {
	cfg := TinyConfig()
	first, err := Generalize(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for run := 2; run <= 5; run++ {
		rows, err := Generalize(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, first) {
			t.Fatalf("run %d:\n%+v\nrun 1:\n%+v", run, rows, first)
		}
	}
}

func TestTableWrappersTiny(t *testing.T) {
	cfg := TinyConfig()
	cfg.Splits = 1
	var buf bytes.Buffer
	if _, err := TableIII(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := TableIV(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := TableV(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table III", "Table IV", "Table V", "x86", "arm", "riscv"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in rendered tables", want)
		}
	}
}
