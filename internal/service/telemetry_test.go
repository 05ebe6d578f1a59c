package service

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/te"
)

// promLine matches one Prometheus text-exposition sample:
// name{labels} value. Labels are optional; the value must parse as a float.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// validatePrometheus is a minimal exposition-format checker: every line is a
// comment or a parseable sample, histogram families have a le="+Inf" bucket
// whose cumulative count equals the family's _count, and bucket series are
// non-decreasing in file order. It returns the set of sampled metric names.
func validatePrometheus(t *testing.T, body string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	// family+labels (minus le) → last cumulative value and whether +Inf seen.
	type bucketState struct {
		last    float64
		infSeen bool
		inf     float64
	}
	buckets := map[string]*bucketState{}
	counts := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		name, labels := m[1], m[2]
		val, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %q: value %q is not a float: %v", line, m[3], err)
		}
		names[name] = true
		if labels == "{}" {
			t.Fatalf("line %q: empty brace pair is not valid exposition syntax", line)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le := ""
			rest := []string{}
			for _, kv := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if strings.HasPrefix(kv, "le=") {
					le = strings.Trim(strings.TrimPrefix(kv, "le="), `"`)
				} else if kv != "" {
					rest = append(rest, kv)
				}
			}
			if le == "" {
				t.Fatalf("bucket line %q has no le label", line)
			}
			key := strings.TrimSuffix(name, "_bucket") + "{" + strings.Join(rest, ",") + "}"
			bs := buckets[key]
			if bs == nil {
				bs = &bucketState{}
				buckets[key] = bs
			}
			if val < bs.last {
				t.Fatalf("bucket series %s not cumulative: %v after %v", key, val, bs.last)
			}
			bs.last = val
			if le == "+Inf" {
				bs.infSeen, bs.inf = true, val
			}
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")+labels] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for key, bs := range buckets {
		if !bs.infSeen {
			t.Fatalf("histogram %s has no le=\"+Inf\" bucket", key)
		}
		if c, ok := counts[key]; !ok || c != bs.inf {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v", key, bs.inf, c)
		}
	}
	return names
}

// TestMetricsEndpointPrometheusParseable scrapes a node that has served a
// warm and a cold batch and validates the whole /v1/metrics body: correct
// content type, parseable exposition syntax, cumulative buckets, and the
// series an operator would alert on actually present.
func TestMetricsEndpointPrometheusParseable(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 3),
	}
	c := NewClient(hs.URL)
	for i := 0; i < 2; i++ { // second round is all cache hits
		if _, err := c.Simulate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	names := validatePrometheus(t, string(body))
	for _, want := range []string{
		"simtune_requests_total",
		"simtune_candidates_total",
		"simtune_cache_hits_total",
		"simtune_stage_duration_seconds_bucket",
		"simtune_candidate_serve_seconds_count",
		"simtune_batch_duration_seconds_sum",
		"simtune_goroutines",
	} {
		if !names[want] {
			t.Errorf("scrape is missing %s", want)
		}
	}

	// The mergeable JSON twin carries the same state for router merging.
	snap, err := c.MetricsSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Hists) == 0 || len(snap.Counters) == 0 {
		t.Fatalf("metricsz snapshot is empty: %+v", snap)
	}
	for _, c := range snap.Counters {
		if c.Name == "simtune_requests_total" {
			if c.Value != 2 {
				t.Fatalf("simtune_requests_total = %v, want 2", c.Value)
			}
			return
		}
	}
	t.Fatal("metricsz snapshot has no simtune_requests_total")
}

// TestTraceTravelsClientToNode pins the tentpole's propagation contract on a
// single hop: a trace ID minted client-side arrives at the node in the
// X-Simtune-Trace header, is echoed on the response, names the node-tier
// trace in /v1/traces, and that trace carries the per-stage span timeline —
// including the encode span amended after the batch sealed.
func TestTraceTravelsClientToNode(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const id = "feedfacecafef00d"
	ctx := obs.WithTrace(context.Background(), id)
	if _, err := NewClient(hs.URL).Simulate(ctx, &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 4),
	}); err != nil {
		t.Fatal(err)
	}

	var trace obs.Trace
	waitFor(t, "the trace to appear in the ring", func() bool {
		traces := srv.tel.traces.Find(id)
		if len(traces) == 0 {
			return false
		}
		trace = traces[0]
		// The encode span is amended after the HTTP body is written, which
		// races the client's return — wait for it too.
		for _, sp := range trace.Spans {
			if sp.Stage == stageNames[stEncode] {
				return true
			}
		}
		return false
	})
	if trace.Tier != "node" || trace.Arch != "riscv" || trace.Candidates != 4 {
		t.Fatalf("trace header wrong: %+v", trace)
	}
	if trace.Err != "" {
		t.Fatalf("successful batch recorded error %q", trace.Err)
	}
	stages := map[string]bool{}
	for _, sp := range trace.Spans {
		stages[sp.Stage] = true
		if sp.DurNS < 0 || sp.N <= 0 {
			t.Fatalf("malformed span %+v", sp)
		}
	}
	for _, want := range []string{stageNames[stAdmission], stageNames[stSimulate], stageNames[stEncode]} {
		if !stages[want] {
			t.Errorf("trace has no %s span (spans: %v)", want, stages)
		}
	}

	// Raw HTTP view: the response echoes the trace ID.
	hreq, _ := http.NewRequest("POST", hs.URL+"/v1/simulate",
		strings.NewReader(`{"arch":"riscv","workload":{"kind":"conv_group","scale":"tiny","group":1},"candidates":[{"steps":[]}]}`))
	hreq.Header.Set(obs.TraceHeader, id)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != id {
		t.Fatalf("response trace header %q, want %q", got, id)
	}

	// And the wire surface exposes the ring: /v1/traces returns the batch.
	tresp, err := http.Get(hs.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	raw, _ := io.ReadAll(tresp.Body)
	if !strings.Contains(string(raw), id) {
		t.Fatalf("/v1/traces does not mention trace %s: %s", id, raw)
	}
}

// TestTraceSurvivesReroute: when a node rejects its sub-batch and the router
// fails over to a ring successor, the reroute hop must keep the batch's trace
// ID — the router trace records the reroute span and the surviving node's
// trace carries the same ID, so the whole detour reads as one timeline.
func TestTraceSurvivesReroute(t *testing.T) {
	servers := make([]*Server, 2)
	hot := make([]*overloadBackend, 2)
	backends := make([]Backend, 2)
	ids := []string{"node-a", "node-b"}
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		hot[i] = &overloadBackend{Backend: servers[i], hint: time.Millisecond}
		backends[i] = hot[i]
	}
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	hot[0].mu.Lock()
	hot[0].saturated = true
	hot[0].mu.Unlock()

	const id = "deadbeef01020304"
	ctx := obs.WithTrace(context.Background(), id)
	resp, err := rt.Simulate(ctx, &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 2),
		Candidates: tinyCandidates(t, 2, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Stats == nil {
			t.Fatalf("candidate %d unserved after reroute: %+v", i, r)
		}
	}
	if hot[0].rejected == 0 {
		t.Skip("hash ring sent nothing to the saturated node with these keys")
	}

	rtraces := rt.tel.traces.Find(id)
	if len(rtraces) != 1 {
		t.Fatalf("router recorded %d traces for %s, want 1", len(rtraces), id)
	}
	stages := map[string]int{}
	for _, sp := range rtraces[0].Spans {
		stages[sp.Stage]++
	}
	if stages[stageNames[stSplit]] == 0 || stages[stageNames[stDispatch]] == 0 || stages[stageNames[stReroute]] == 0 {
		t.Fatalf("router trace lacks split/dispatch/reroute spans: %v", stages)
	}
	// The survivor saw the same trace identity on every hop that reached it.
	ntraces := servers[1].tel.traces.Find(id)
	if len(ntraces) == 0 {
		t.Fatal("surviving node has no trace under the batch's ID — the reroute hop dropped it")
	}
	for _, tr := range ntraces {
		if tr.Tier != "node" {
			t.Fatalf("node-side trace has tier %q", tr.Tier)
		}
	}
	if len(servers[0].tel.traces.Find(id)) != 0 {
		t.Fatal("saturated node never admitted the batch but recorded a trace")
	}
}

// TestTelemetrySurface pins what an operator sees of the instrument panel:
// every registered histogram series, in registration order (the order
// /v1/metrics renders and statusz.stages summarizes), at both tiers, and
// the set of span stages a node trace and a router trace carry. The node
// serves a cold batch and then a warm one under a named tenant, with a
// two-entry resident set over a durable store so the warm batch is served
// from RAM and from disk and both batches evict; the router reroutes once
// around a node that sheds its sub-batch.
func TestTelemetrySurface(t *testing.T) {
	names := func(tel *telemetry) []string {
		var out []string
		for _, h := range tel.m.Snapshot() {
			out = append(out, h.Name+"{"+h.Labels+"}")
		}
		return out
	}
	equal := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\ngot  %q\nwant %q", what, got, want)
		}
	}
	spanStages := func(traces []obs.Trace) []string {
		seen := map[string]bool{}
		for _, tr := range traces {
			for _, sp := range tr.Spans {
				seen[sp.Stage] = true
			}
		}
		out := make([]string, 0, len(seen))
		for s := range seen {
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}

	// One worker serves the candidates in index order, so the ARC moves are
	// fixed: the cold batch fills 0..3 and keeps 2 and 3 resident; the warm
	// batch hits 3 and 2 in RAM, then reads 0 from disk, which evicts.
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV, isa.ARM}, WorkersPerArch: 1,
		MaxResidentResults: 2, CacheDir: t.TempDir(),
	})
	defer srv.Close()
	cands := tinyCandidates(t, 1, 4)
	ctx := WithTenant(context.Background(), "acme")
	const coldID, warmID = "c01dc01dc01dc01d", "3a3a3a3a3a3a3a3a"
	for _, b := range []struct {
		id    string
		cands []Candidate
	}{
		{coldID, cands},
		{warmID, []Candidate{cands[3], cands[2], cands[0]}},
	} {
		if _, err := srv.Simulate(obs.WithTrace(ctx, b.id), &SimulateRequest{
			Arch: "riscv", Workload: ConvGroupSpec("tiny", 1), Candidates: b.cands,
		}); err != nil {
			t.Fatal(err)
		}
	}
	equal("node series", names(srv.tel), []string{
		`simtune_stage_duration_seconds{stage="encode"}`,
		`simtune_stage_duration_seconds{stage="store_write"}`,
		`simtune_stage_duration_seconds{stage="admission",arch="riscv"}`,
		`simtune_stage_duration_seconds{stage="queue_wait",arch="riscv"}`,
		`simtune_stage_duration_seconds{stage="cache_lookup",arch="riscv"}`,
		`simtune_stage_duration_seconds{stage="disk_hit",arch="riscv"}`,
		`simtune_stage_duration_seconds{stage="singleflight_wait",arch="riscv"}`,
		`simtune_stage_duration_seconds{stage="simulate",arch="riscv"}`,
		`simtune_stage_duration_seconds{stage="evict",arch="riscv"}`,
		`simtune_candidate_serve_seconds{arch="riscv",outcome="hit"}`,
		`simtune_candidate_serve_seconds{arch="riscv",outcome="disk_hit"}`,
		`simtune_candidate_serve_seconds{arch="riscv",outcome="miss"}`,
		`simtune_candidate_serve_seconds{arch="riscv",outcome="canceled"}`,
		`simtune_batch_duration_seconds{arch="riscv",outcome="ok"}`,
		`simtune_batch_duration_seconds{arch="riscv",outcome="canceled"}`,
		`simtune_batch_duration_seconds{arch="riscv",outcome="rejected"}`,
		`simtune_batch_duration_seconds{arch="riscv",outcome="error"}`,
		`simtune_stage_duration_seconds{stage="admission",arch="arm"}`,
		`simtune_stage_duration_seconds{stage="queue_wait",arch="arm"}`,
		`simtune_stage_duration_seconds{stage="cache_lookup",arch="arm"}`,
		`simtune_stage_duration_seconds{stage="disk_hit",arch="arm"}`,
		`simtune_stage_duration_seconds{stage="singleflight_wait",arch="arm"}`,
		`simtune_stage_duration_seconds{stage="simulate",arch="arm"}`,
		`simtune_stage_duration_seconds{stage="evict",arch="arm"}`,
		`simtune_candidate_serve_seconds{arch="arm",outcome="hit"}`,
		`simtune_candidate_serve_seconds{arch="arm",outcome="disk_hit"}`,
		`simtune_candidate_serve_seconds{arch="arm",outcome="miss"}`,
		`simtune_candidate_serve_seconds{arch="arm",outcome="canceled"}`,
		`simtune_batch_duration_seconds{arch="arm",outcome="ok"}`,
		`simtune_batch_duration_seconds{arch="arm",outcome="canceled"}`,
		`simtune_batch_duration_seconds{arch="arm",outcome="rejected"}`,
		`simtune_batch_duration_seconds{arch="arm",outcome="error"}`,
		`simtune_tenant_serve_seconds{tenant="acme"}`,
	})
	equal("cold node trace stages", spanStages(srv.tel.traces.Find(coldID)),
		[]string{"admission", "evict", "queue_wait", "simulate"})
	equal("warm node trace stages", spanStages(srv.tel.traces.Find(warmID)),
		[]string{"admission", "cache_lookup", "disk_hit", "evict"})

	servers := make([]*Server, 2)
	hot := make([]*overloadBackend, 2)
	backends := make([]Backend, 2)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		hot[i] = &overloadBackend{Backend: servers[i], hint: time.Millisecond}
		backends[i] = hot[i]
	}
	hot[0].saturated = true
	rt, err := NewRouterBackends([]string{"node-a", "node-b"}, backends,
		RouterConfig{ProbeInterval: -1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const routedID = "deadbeef05060708"
	if _, err := rt.Simulate(obs.WithTrace(ctx, routedID), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 2), Candidates: tinyCandidates(t, 2, 8),
	}); err != nil {
		t.Fatal(err)
	}
	if hot[0].rejected != 1 || rt.rerouted.Load() != 1 {
		t.Fatalf("want one shed sub-batch and one reroute, got %d and %d", hot[0].rejected, rt.rerouted.Load())
	}
	equal("router series", names(rt.tel), []string{
		`simtune_stage_duration_seconds{stage="encode"}`,
		`simtune_stage_duration_seconds{stage="store_write"}`,
		`simtune_stage_duration_seconds{stage="split"}`,
		`simtune_stage_duration_seconds{stage="reroute"}`,
		`simtune_stage_duration_seconds{stage="replicate"}`,
		`simtune_stage_duration_seconds{stage="antientropy"}`,
		`simtune_router_batch_duration_seconds{outcome="ok"}`,
		`simtune_router_batch_duration_seconds{outcome="canceled"}`,
		`simtune_router_batch_duration_seconds{outcome="error"}`,
		`simtune_router_batch_duration_seconds{outcome="overloaded"}`,
		`simtune_router_batch_duration_seconds{outcome="unserved"}`,
		`simtune_router_batch_duration_seconds{outcome="undeliverable"}`,
		`simtune_router_dispatch_seconds{node="node-a"}`,
		`simtune_router_dispatch_seconds{node="node-b"}`,
	})
	equal("router trace stages", spanStages(rt.tel.traces.Find(routedID)),
		[]string{"dispatch", "reroute", "split"})
}

// TestRouterMetricsMergeIsExact pins the fleet-quantile semantics: the
// router's /v1/metricsz merges node histograms bucket-wise, so a quantile of
// the merged series is the quantile of the combined sample. A 60/40 bimodal
// split across two nodes makes the distinction sharp — averaging the two
// per-node p50s would land near 500ms; the true combined p50 is ~1ms.
func TestRouterMetricsMergeIsExact(t *testing.T) {
	servers := make([]*Server, 2)
	backends := make([]Backend, 2)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1})
		backends[i] = servers[i]
	}
	rt, err := NewRouterBackends([]string{"node-a", "node-b"}, backends,
		RouterConfig{ProbeInterval: -1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	fast := servers[0].tel.arch[isa.RISCV].stage[stSimulate]
	slow := servers[1].tel.arch[isa.RISCV].stage[stSimulate]
	for i := 0; i < 60; i++ {
		fast.Observe(time.Millisecond)
	}
	for i := 0; i < 40; i++ {
		slow.Observe(time.Second)
	}
	// The same bimodal split under one tenant label: per-tenant serve
	// histograms must merge bucket-wise across nodes exactly like the stage
	// series, keyed by the tenant label.
	tfast := servers[0].tel.tenantServe("acme")
	tslow := servers[1].tel.tenantServe("acme")
	for i := 0; i < 60; i++ {
		tfast.Observe(time.Millisecond)
	}
	for i := 0; i < 40; i++ {
		tslow.Observe(time.Second)
	}

	snap, err := rt.MetricsSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := obs.Labels("stage", stageNames[stSimulate], "arch", "riscv")
	var merged *obs.HistSnapshot
	for i := range snap.Hists {
		if snap.Hists[i].Name == metricStage && snap.Hists[i].Labels == wantLabels {
			merged = &snap.Hists[i]
			break
		}
	}
	if merged == nil {
		t.Fatalf("merged snapshot lacks %s{%s}", metricStage, wantLabels)
	}
	if merged.Count != 100 {
		t.Fatalf("merged count %d, want 100 (both nodes' samples)", merged.Count)
	}
	p50 := merged.Quantile(0.50)
	if p50 > 10*time.Millisecond {
		t.Fatalf("merged p50 = %v — that is an averaged quantile, not a merged one (true combined p50 ≈ 1ms)", p50)
	}
	if max := merged.Max(); max < time.Second {
		t.Fatalf("merged max %v lost the slow node's tail", max)
	}
	if p99 := merged.Quantile(0.99); p99 < 512*time.Millisecond {
		t.Fatalf("merged p99 = %v, want the slow mode (≥512ms at factor-of-two error)", p99)
	}

	// The tenant-labeled series must merge with the same exactness.
	tenantLabels := obs.Labels("tenant", "acme")
	var tmerged *obs.HistSnapshot
	for i := range snap.Hists {
		if snap.Hists[i].Name == metricTenant && snap.Hists[i].Labels == tenantLabels {
			tmerged = &snap.Hists[i]
			break
		}
	}
	if tmerged == nil {
		t.Fatalf("merged snapshot lacks %s{%s}", metricTenant, tenantLabels)
	}
	if tmerged.Count != 100 {
		t.Fatalf("merged tenant count %d, want 100 (both nodes' samples)", tmerged.Count)
	}
	if p50 := tmerged.Quantile(0.50); p50 > 10*time.Millisecond {
		t.Fatalf("merged tenant p50 = %v — averaged, not merged", p50)
	}
	if p99 := tmerged.Quantile(0.99); p99 < 512*time.Millisecond {
		t.Fatalf("merged tenant p99 = %v lost the slow node's mode", p99)
	}
}

// TestStatuszStageLatencies: a served batch must surface per-stage quantile
// rows in statusz.
func TestStatuszStageLatencies(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
	if _, err := srv.Simulate(context.Background(), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 2),
	}); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Stages) == 0 {
		t.Fatal("statusz has no stage latencies after a served batch")
	}
	var sawBatch bool
	for _, sl := range st.Stages {
		if sl.Count == 0 {
			t.Fatalf("zero-count series leaked into statusz: %+v", sl)
		}
		if sl.Metric == metricBatch && strings.Contains(sl.Labels, `outcome="ok"`) {
			sawBatch = true
			if sl.P99MS < sl.P50MS || sl.MaxMS < sl.P99MS {
				t.Fatalf("non-monotone quantiles: %+v", sl)
			}
		}
	}
	if !sawBatch {
		t.Fatalf("no ok-batch series in %+v", st.Stages)
	}
}

// TestSlowBatchLogLine pins the structured slow-batch line: with a threshold
// every batch exceeds, exactly one greppable line per batch, carrying the
// trace ID as the join key into /v1/traces.
func TestSlowBatchLogLine(t *testing.T) {
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2,
		SlowBatchThreshold: time.Nanosecond,
	})
	var mu sync.Mutex
	var lines []string
	srv.tel.logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	const id = "0123456789abcdef"
	if _, err := srv.Simulate(obs.WithTrace(context.Background(), id), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 2),
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("got %d slow-batch lines, want 1: %q", len(lines), lines)
	}
	want := regexp.MustCompile(`^obs: slow-batch trace=` + id +
		` tier=node arch=riscv workload=\S+ candidates=2 dur=\S+ threshold=1ns err=""$`)
	if !want.MatchString(lines[0]) {
		t.Fatalf("slow-batch line %q does not match %v", lines[0], want)
	}
}

// TestClientRetryTelemetry: the runner's client-side counters must account
// for every attempt — a batch that fails once retryably and then succeeds is
// two attempts, one retry, nonzero backoff, and two attempt-latency samples.
func TestClientRetryTelemetry(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
	inner := srv.Handler()
	var calls atomic.Int64
	fs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/simulate" && calls.Add(1) == 1 {
			httpError(w, http.StatusServiceUnavailable, "injected: restarting")
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer fs.Close()

	r := &ServiceRunner{
		Backend: NewClient(fs.URL), Arch: isa.RISCV,
		Workload: ConvGroupSpec(te.ScaleTiny, 1), Retries: 2,
		sleep: func(context.Context, time.Duration) error { return nil },
	}
	resp, err := r.simulateWithRetry(context.Background(), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	tel := r.Telemetry()
	if tel.Attempts != 2 || tel.Retries != 1 {
		t.Fatalf("attempts/retries = %d/%d, want 2/1", tel.Attempts, tel.Retries)
	}
	if tel.BackoffTotal <= 0 {
		t.Fatalf("backoff total %v, want > 0 (one retry pause was recorded)", tel.BackoffTotal)
	}
	if tel.AttemptLatency.Count != 2 {
		t.Fatalf("attempt-latency count %d, want 2 (failed attempts are recorded too)", tel.AttemptLatency.Count)
	}
}

// timingsSink keeps BenchmarkTelemetryPanel's timings slice on the heap,
// where Server.Simulate's lives (its workers capture it).
var timingsSink []candTimings

// BenchmarkTelemetryPanel prices the instrument panel directly: one op is
// every telemetry call Server.Simulate makes for a batch of 32 RAM hits —
// open the trace and describe it, the admission span, the timings slice, per
// candidate two clock reads, record and the tenant's observe, then finish —
// and nothing else. CI's metrics-smoke job gates ns/cand and allocs/op.
func BenchmarkTelemetryPanel(b *testing.B) {
	const n = 32
	srv := mustServer(b, Config{Archs: []isa.Arch{isa.RISCV}})
	at := srv.tel.arch[isa.RISCV]
	tl := srv.admit.tenant(DefaultTenant)
	req := &SimulateRequest{Arch: "riscv", Workload: ConvGroupSpec(te.ScaleSmall, 1), Candidates: make([]Candidate, n)}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, bt := srv.tel.begin(ctx, "node", req)
		adm0 := time.Now()
		bt.timed(stAdmission, at.stage[stAdmission], adm0, time.Since(adm0), 1, "")
		tms := make([]candTimings, n)
		timingsSink = tms
		for j := range tms {
			c0 := time.Now()
			total := time.Since(c0)
			at.record(&bt.agg, &tms[j], total, true, nil)
			tl.recordServe(total, true, nil)
		}
		bt.finish(at.batch[outOK], nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cand")
}
