package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/num"
	"repro/internal/schedule"
)

func corpusHash(t *testing.T, seed uint64) [sha256.Size]byte {
	t.Helper()
	cands, err := genCorpus(seed, smokeCorpusSize)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := range cands {
		h.Write([]byte(cands[i].candID()))
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// opListHash hashes everything a fleet pass sends: the pool keys, the fixed
// request list and the first never-seen requests.
func opListHash(t *testing.T, seed uint64) [sha256.Size]byte {
	t.Helper()
	cells, err := genPool(seed, smokePool)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range cells {
		for _, k := range c.Keys {
			h.Write(k[:])
		}
	}
	for _, r := range genRequests(seed, cells, 8) {
		h.Write([]byte{byte(r.Cell)})
		for _, c := range r.Req.Candidates {
			h.Write(schedule.Canonical(c.Steps))
		}
	}
	fresh, rng := newFreshDims(seed), num.NewRNG(seed)
	for i := 0; i < 4; i++ {
		req, err := fresh.request(rng)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(req.Arch))
		for _, d := range req.Workload.Dims {
			h.Write([]byte{byte(d)})
		}
		for _, c := range req.Candidates {
			h.Write(schedule.Canonical(c.Steps))
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	for name, hash := range map[string]func(*testing.T, uint64) [sha256.Size]byte{
		"corpus": corpusHash, "operation list": opListHash,
	} {
		if hash(t, 3) != hash(t, 3) {
			t.Errorf("%s: the same seed gave two different outputs", name)
		}
		if hash(t, 3) == hash(t, 4) {
			t.Errorf("%s: seeds 3 and 4 gave the same output", name)
		}
	}
}

func TestFreshRequestsNeverRepeatAKey(t *testing.T) {
	f := newFreshDims(1)
	f.order = f.order[:5] // three laps of five shapes exhaust the enumeration
	rng := num.NewRNG(1)
	seen := map[string]bool{}
	for i := 0; i < 15; i++ {
		req, err := f.request(rng)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprint(req.Arch, req.Workload.Dims)
		if seen[id] {
			t.Fatalf("request %d repeats (ISA, shape) %s", i, id)
		}
		seen[id] = true
	}
	if _, err := f.request(rng); err == nil {
		t.Fatal("the sixteenth request of a 15-pair enumeration must fail, not repeat")
	}
}

// Percentile, median and mean come from internal/num, which tests them; the
// helpers tested here are the ones the benchmark adds.
func TestQuartilesSpreadAndTail(t *testing.T) {
	// statistics.quantiles([10, 20, 30, 40, 50, 60, 70, 80, 90, 100], n=4)
	// is [27.5, 55.0, 82.5].
	ten := []float64{100, 90, 80, 70, 60, 50, 40, 30, 20, 10}
	q1, q2, q3 := quartiles(ten)
	if q1 != 27.5 || q2 != 55 || q3 != 82.5 {
		t.Errorf("quartiles = %v %v %v, want 27.5 55 82.5", q1, q2, q3)
	}
	if got := spreadPct(ten); got != 100 {
		t.Errorf("spread = %v%%, want 100%%", got)
	}
	if got := spreadPct([]float64{7, 7, 7}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
	for n, want := range map[int]float64{5: 50, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeOnNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: "r", Name: "client.roundtrip", StartNS: 0, EndNS: 100},
		{ID: 2, Trace: "r", Name: "router.handler", StartNS: 10, EndNS: 90},
		// Two dispatches overlap from 30 to 50; a third lies apart.
		{ID: 3, Trace: "r", Name: "router.dispatch", Node: "node-0", StartNS: 20, EndNS: 50},
		{ID: 4, Trace: "r", Name: "router.dispatch", Node: "node-1", StartNS: 30, EndNS: 60},
		{ID: 5, Trace: "r", Name: "router.dispatch", Node: "node-2", StartNS: 70, EndNS: 80},
		// node-1's handler also fits inside node-0's dispatch in time.
		{ID: 6, Trace: "r", Name: "node.handler", Node: "node-1", StartNS: 35, EndNS: 45},
		// Another request's handler must not be adopted.
		{ID: 7, Trace: "other", Name: "router.handler", StartNS: 10, EndNS: 90},
	}
	linkSpans(spans)
	wantParent := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 2, 6: 4, 7: 0}
	for _, s := range spans {
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d: parent %d, want %d", s.ID, s.Parent, wantParent[s.ID])
		}
	}
	self := selfTimes(spans)
	// The router's children cover [20,60] and [70,80]: 50 of its 80.
	for id, want := range map[int]int64{1: 20, 2: 30, 3: 30, 4: 20, 5: 10, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

func TestPinDiffNamesTheEntryThatMoved(t *testing.T) {
	a := newPin([][sha256.Size]byte{{1}, {2}, {3}})
	if d := a.diff(a); d != "" {
		t.Errorf("a pin differs from itself: %s", d)
	}
	b := newPin([][sha256.Size]byte{{1}, {9}, {3}})
	if d := a.diff(b); !strings.Contains(d, "entry 1") {
		t.Errorf("diff = %q, want it to name entry 1", d)
	}
	if d := a.diff(newPin([][sha256.Size]byte{{1}})); d == "" {
		t.Error("a shorter pin must differ")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONAgreesWithTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := describe(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with metrics.go; regenerate it with `go run ./benchmark -describe`")
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEndDefs {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayerDefs {
		check(m.Name)
	}
	for _, m := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{Workload: workload, Seed: 1, Seconds: 1, Trace: trace, Smoke: true,
		OutDir: t.TempDir(), ScratchDir: t.TempDir()}
}

// TestSmoke runs all four workloads at smoke size, untraced and traced,
// including their correctness checks, and checks that the result line and the
// result file carry exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := smokeConfig(t, w.Name, trace)
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
					t.Errorf("result %+v", rep.Result)
				}
				defs := endToEndDefs
				if trace {
					defs = perLayerDefs
				}
				if len(rep.Result.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(rep.Result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Result.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s = %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want a positive number", d.Name, m.Value)
					}
				}
				var file report
				data, err := os.ReadFile(resultPath(cfg, "result"))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(data, &file); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(file.Result, rep.Result) || file.Machine.Workload != w.Name {
					t.Error("the result file disagrees with the result line")
				}
				if !trace {
					return
				}
				if _, err := os.Stat(resultPath(cfg, "spans")); err != nil {
					t.Errorf("no span file: %v", err)
				}
				if w.Name == "fleet_churn" {
					churnStillReplicates(t, rep)
				}
			})
		}
	}
}

// churnStillReplicates guards the traced run against a decorator that hides
// HandoffBackend from the router: RF=2 would then be off exactly when it is
// being measured.
func churnStillReplicates(t *testing.T, rep *report) {
	t.Helper()
	if got := rep.Result.Metrics["service.replica_keys"].Value; got <= 0 {
		t.Errorf("service.replica_keys = %v with timing decorators installed, want > 0", got)
	}
	if got := rep.Result.Metrics["service.ingest_us_per_batch"].Value; got <= 0 {
		t.Errorf("service.ingest_us_per_batch = %v: no router.ingest span was recorded", got)
	}
	if got := rep.Result.Metrics["service.duplicate_sims"].Value; got != 0 {
		t.Errorf("service.duplicate_sims = %v, want 0", got)
	}
}

func TestRefusesMoreClientsThanCPUs(t *testing.T) {
	cfg := smokeConfig(t, "fleet_hit", false)
	cfg.Clients = runtime.NumCPU() + 1
	if _, err := run(cfg); err == nil {
		t.Fatal("a fleet run with more clients than CPUs must be refused")
	}
}
