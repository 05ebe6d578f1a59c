// Command benchmark is the repository's one benchmark: four named workloads
// that together exercise every layer of the stack, each run from a seed in a
// fresh process, each checked for correct outputs, each reporting the same
// end-to-end metrics and — in a second, traced invocation — per-layer metrics
// derived from spans recorded around the calls into each layer's public
// functions.
//
//	go run ./benchmark --workload sim_corpus --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload fleet_hit  --seed 1 --seconds 10 --trace 1
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics); everything before it is the human-readable report. See
// README.md in this directory for the metric glossary, the reason each
// workload exists, the layer-to-metric table and the known traps.
//
// Every workload is a closed loop over a fixed, seed-generated operation
// list that is repeated pass after pass until the requested seconds are up,
// so per-pass counts repeat exactly. Simulated caches start empty for every
// candidate: that is the simulator's contract, and every simulated statistic
// reported here is taken under it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/num"
)

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	// Smoke shrinks every workload to a few candidates and a fixed two
	// passes so the whole suite runs in seconds under go test.
	Smoke bool
	// Clients is the number of client goroutines, connections and
	// WorkersPerArch; it defaults to the CPU count and may not exceed it.
	Clients int
	// OutDir receives the result file and, on a traced run, the span file.
	OutDir string
	// ScratchDir holds the fleet nodes' result stores while a run lasts.
	ScratchDir string
	// Log receives the human-readable report.
	Log io.Writer
}

// setupReps is how often set-up is repeated; setup_s is the median. A smoke
// run sets up once.
const setupReps = 3

// passResult is what one pass over the operation list reports.
type passResult struct {
	// BatchMS holds the host time of every unit a caller waits for: one
	// candidate on sim_corpus, one measurement batch on paper_pipeline, one
	// HTTP request on the fleet workloads.
	BatchMS []float64
	// Cands and Instr count candidates and simulated instructions delivered.
	Cands int
	Instr uint64
	// Attempted and Failed count operations.
	Attempted int
	Failed    int
	// WallS is the pass's timed window.
	WallS float64
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setup generates inputs, builds what the passes run against and warms
	// it. It is timed as setup_s and called setupReps times; teardown
	// releases what it built and is never timed.
	setup() error
	teardown()
	// pass runs the operation list once. Input generation for the pass and
	// the correctness checks on its outputs happen outside WallS.
	pass(p int) (*passResult, error)
	// verify runs the heavier correctness checks after the last pass and
	// returns how many results were wrong over the whole run.
	verify() (wrong int, err error)
	// layers fills in the workload's per-layer metrics on a traced run.
	layers(in *layerInput, vals map[string]float64) error
}

// layerInput is what a traced run hands a workload to derive its per-layer
// metrics from: the finished spans, the estimate of the traced passes, and the
// untraced reference passes that preceded them.
type layerInput struct {
	Spans     *spanStats
	RefPasses []*passResult
	Est       estimate
}

// report is what run returns and writes to the result file.
type report struct {
	Machine  machineBlock           `json:"machine"`
	Result   resultLine             `json:"result"`
	Notes    map[string]string      `json:"notes,omitempty"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	// PassWallS is every timed pass's wall time, in order.
	PassWallS []float64 `json:"pass_wall_s"`
}

func newWorkload(cfg config, tr *tracer) (workload, error) {
	switch cfg.Workload {
	case "sim_corpus":
		return newSimCorpus(cfg, tr), nil
	case "paper_pipeline":
		return newPipeline(cfg, tr), nil
	case "fleet_hit":
		return newFleet(cfg, tr, false), nil
	case "fleet_churn":
		return newFleet(cfg, tr, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sim_corpus|paper_pipeline|fleet_hit|fleet_churn)", cfg.Workload)
}

// window runs passes until the duration is used up, and never fewer than
// minPasses; a smoke run does exactly minPasses.
func window(w workload, cfg config, first int, d time.Duration, minPasses int) ([]*passResult, error) {
	var out []*passResult
	start := time.Now()
	for p := 0; ; p++ {
		if p >= minPasses && (cfg.Smoke || time.Since(start) >= d) {
			return out, nil
		}
		r, err := w.pass(first + p)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", first+p, err)
		}
		out = append(out, r)
	}
}

// estimate is the end-to-end view of a set of passes: every timing is the
// median over passes of the per-pass value.
type estimate struct {
	CandPerS   float64
	MinstrPerS float64
	P50MS      float64
	P95MS      float64
}

func estimateOf(passes []*passResult) estimate {
	var cand, instr, p50, p95 []float64
	for _, p := range passes {
		cand = append(cand, float64(p.Cands)/p.WallS)
		instr = append(instr, float64(p.Instr)/1e6/p.WallS)
		p50 = append(p50, num.Quantile(p.BatchMS, 0.50))
		p95 = append(p95, num.Quantile(p.BatchMS, 0.95))
	}
	return estimate{CandPerS: num.Median(cand), MinstrPerS: num.Median(instr), P50MS: num.Median(p50), P95MS: num.Median(p95)}
}

// run executes one workload and returns its report. It is what main and the
// smoke tests both call.
func run(cfg config) (*report, error) {
	nproc := runtime.NumCPU()
	if cfg.Clients == 0 {
		cfg.Clients = nproc
	}
	if cfg.Clients > nproc {
		return nil, fmt.Errorf("%d client goroutines on %d CPUs: clients, connections and workers share the host with the fleet they load, so more clients than CPUs measures the scheduler", cfg.Clients, nproc)
	}
	if cfg.Seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	w, err := newWorkload(cfg, tr)
	if err != nil {
		return nil, err
	}

	reps := setupReps
	if cfg.Smoke {
		reps = 1
	}
	setupS := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			// The discarded set-up's memory is collected before the next
			// one allocates, or peak_rss_mb would measure the repetition.
			w.teardown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.teardown()

	// A traced run spends the first third of its window on reference passes
	// with the tracer switched off; the difference is the tracing overhead.
	total := time.Duration(cfg.Seconds) * time.Second
	minPasses := 3
	if cfg.Smoke {
		minPasses = 2
	}
	var ref []*passResult
	if cfg.Trace {
		if ref, err = window(w, cfg, 0, total/3, minPasses); err != nil {
			return nil, err
		}
		total -= total / 3
		tr.enabled.Store(true)
	}
	cpu0 := cpuSeconds()
	passes, err := window(w, cfg, len(ref), total, minPasses)
	if err != nil {
		return nil, err
	}
	cpuS := cpuSeconds() - cpu0
	if tr != nil {
		tr.enabled.Store(false)
	}

	wrong, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	est := estimateOf(passes)
	e2e := map[string]float64{
		"setup_s":          num.Median(setupS),
		"cand_per_s":       est.CandPerS,
		"sim_minstr_per_s": est.MinstrPerS,
		"batch_p50_ms":     est.P50MS,
		"batch_p95_ms":     est.P95MS,
		"peak_rss_mb":      peakRSSMB(),
	}
	rep := &report{
		Machine: machineBlock{
			NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPUModel: cpuModel(), Commit: commit(), Seed: cfg.Seed, Workload: cfg.Workload,
			Traced: cfg.Trace, Smoke: cfg.Smoke, Seconds: cfg.Seconds, Clients: cfg.Clients,
			SetupReps: reps, Passes: len(passes), RefPasses: len(ref),
		},
		Notes:    map[string]string{},
		EndToEnd: pack(endToEndDefs, e2e),
	}
	var walls, allBatches []float64
	var cands float64
	for _, p := range passes {
		rep.Result.Attempted += p.Attempted
		rep.Result.Failed += p.Failed
		walls = append(walls, p.WallS)
		allBatches = append(allBatches, p.BatchMS...)
		cands += float64(p.Cands)
	}
	rep.Result.Correct = wrong == 0 && rep.Result.Failed == 0
	rep.PassWallS = walls
	tail := tailPercentile(len(allBatches))
	rep.Notes["simulated_caches"] = "start empty for every candidate"
	rep.Notes["estimator"] = "every timing is the median over passes of the per-pass value"
	rep.Notes["batch_tail"] = fmt.Sprintf("p%g of %d batch samples", tail, len(allBatches))
	rep.Notes["pass_wall_s"] = fmt.Sprintf("median %.4f, spread %.1f%% over %d passes", num.Median(walls), spreadPct(walls), len(walls))
	rep.Notes["setup_s_samples"] = fmt.Sprintf("%.4f", setupS)

	if cfg.Trace {
		vals := map[string]float64{
			"bench.cpu_s_per_kcand":    cpuS / (cands / 1e3),
			"bench.batch_tail_ms":      num.Quantile(allBatches, tail/100),
			"bench.pass_spread_pct":    spreadPct(walls),
			"bench.failed_share":       float64(rep.Result.Failed) / float64(rep.Result.Attempted),
			"bench.wrong_results":      float64(wrong),
			"bench.trace_overhead_pct": 100 * (1 - est.CandPerS/estimateOf(ref).CandPerS),
		}
		spans := tr.finish()
		st := newSpanStats(spans)
		if err := w.layers(&layerInput{Spans: st, RefPasses: ref, Est: est}, vals); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		rep.Result.Metrics = pack(perLayerDefs, vals)
		if err := writeSpans(cfg, rep.Machine, spans, st); err != nil {
			return nil, err
		}
	} else {
		rep.Result.Metrics = rep.EndToEnd
	}
	printReport(cfg.Log, rep, wrong)
	if err := writeJSON(resultPath(cfg, "result"), rep); err != nil {
		return nil, err
	}
	if wrong > 0 {
		return rep, fmt.Errorf("%d wrong results", wrong)
	}
	if rep.Result.Failed > 0 {
		return rep, fmt.Errorf("%d of %d operations failed", rep.Result.Failed, rep.Result.Attempted)
	}
	return rep, nil
}

// maxSpansWritten caps the raw spans in the span file; the per-name summary
// beside them always covers every span.
const maxSpansWritten = 50000

func writeSpans(cfg config, m machineBlock, spans []span, st *spanStats) error {
	out := struct {
		Machine   machineBlock  `json:"machine"`
		Total     int           `json:"spans_total"`
		Truncated bool          `json:"spans_truncated"`
		Summary   []spanSummary `json:"summary"`
		Spans     []span        `json:"spans"`
	}{Machine: m, Total: len(spans), Summary: st.summary(), Spans: spans}
	if len(spans) > maxSpansWritten {
		out.Spans, out.Truncated = spans[:maxSpansWritten], true
	}
	return writeJSON(resultPath(cfg, "spans"), out)
}

func resultPath(cfg config, kind string) string {
	mode := "e2e"
	if cfg.Trace {
		mode = "traced"
	}
	return filepath.Join(cfg.OutDir, fmt.Sprintf("%s.%s.%s.json", cfg.Workload, mode, kind))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes the machine block, the notes and every metric by name
// with its unit.
func printReport(w io.Writer, rep *report, wrong int) {
	m := rep.Machine
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPUModel, m.Commit)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%d traced=%v smoke=%v clients=%d setup_reps=%d passes=%d reference_passes=%d\n",
		m.Workload, m.Seed, m.Seconds, m.Traced, m.Smoke, m.Clients, m.SetupReps, m.Passes, m.RefPasses)
	for _, k := range sortedKeys(rep.Notes) {
		fmt.Fprintf(w, "note: %s: %s\n", k, rep.Notes[k])
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d wrong_results=%d\n",
		rep.Result.Attempted, rep.Result.Failed, wrong)
	defs := endToEndDefs
	if m.Traced {
		for _, d := range endToEndDefs {
			fmt.Fprintf(w, "(traced run, not reported) %-38s %14.4f %s\n", d.Name, rep.EndToEnd[d.Name].Value, d.Unit)
		}
		defs = perLayerDefs
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-38s %14.4f %s\n", d.Name, rep.Result.Metrics[d.Name].Value, d.Unit)
	}
}

func main() {
	var cfg config
	var trace int
	var describeOnly bool
	flag.StringVar(&cfg.Workload, "workload", "", "sim_corpus | paper_pipeline | fleet_hit | fleet_churn")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.Seconds, "seconds", runSeconds, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "tiny sizes and two passes, for tests")
	flag.IntVar(&cfg.Clients, "clients", 0, "client goroutines, connections and workers per arch (default and maximum: the CPU count)")
	flag.StringVar(&cfg.OutDir, "out", filepath.Join(".bench_build", "results"), "directory for the result and span files")
	flag.StringVar(&cfg.ScratchDir, "scratch", filepath.Join(".bench_build", "run"), "directory for the fleet nodes' result stores")
	flag.BoolVar(&describeOnly, "describe", false, "print BENCHMARK.json as the metric tables define it and exit")
	regen := flag.String("regen", "", "recompute the pinned correctness data into this directory (benchmark/testdata) and exit")
	flag.Parse()
	if *regen != "" {
		if err := regenerate(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}
	if describeOnly {
		data, err := json.MarshalIndent(describe(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		fmt.Println(string(data))
		return
	}
	cfg.Trace = trace != 0
	cfg.Log = os.Stdout
	rep, err := run(cfg)
	if rep != nil {
		line, merr := json.Marshal(rep.Result)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", merr)
			os.Exit(2)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
