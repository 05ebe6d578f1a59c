package service

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/te"
)

// threeNodeRouter builds a router over n in-process servers (no HTTP, no
// background probe — tests drive probeOnce explicitly).
func threeNodeRouter(t testing.TB, n int) (*Router, []*Server) {
	servers := make([]*Server, n)
	ids := make([]string, n)
	backends := make([]Backend, n)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		ids[i] = "node-" + string(rune('a'+i))
		backends[i] = servers[i]
	}
	// ReplicationFactor 1: these tests pin the single-copy sharding contract
	// (each key on exactly its ring owner); replication has its own tests.
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1, ReplicationFactor: 1})
	if err != nil {
		panic(err)
	}
	return rt, servers
}

// TestRouterSplitsAndReassembles is the core routing contract: a batch fans
// out by ring owner and comes back index-aligned and bit-identical to
// in-process simulation; every key lives on exactly one node; re-submitting
// hits every node's cache.
func TestRouterSplitsAndReassembles(t *testing.T) {
	rt, servers := threeNodeRouter(t, 3)
	const group, n = 1, 12
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	cold, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Results) != n {
		t.Fatalf("router returned %d results for %d candidates", len(cold.Results), n)
	}
	for i, res := range cold.Results {
		if res.Err != "" || res.CacheHit {
			t.Fatalf("candidate %d: cold result %+v", i, res)
		}
		want := referenceStats(t, isa.RISCV, group, req.Candidates[i].Steps)
		if got, ref := normalized(res.Stats), normalized(want); !reflect.DeepEqual(got, ref) {
			t.Fatalf("candidate %d: routed stats diverge from in-process:\n got %+v\nwant %+v", i, got, ref)
		}
	}

	// Exactly-one-owner: the n distinct keys partition across node caches.
	var entries, simulated int
	nodesUsed := 0
	for _, s := range servers {
		entries += s.cache.len()
		simulated += int(s.shards[isa.RISCV].simulated.Load())
		if s.cache.len() > 0 {
			nodesUsed++
		}
	}
	if entries != n || simulated != n {
		t.Fatalf("fleet holds %d entries / %d simulations for %d unique candidates", entries, simulated, n)
	}
	if nodesUsed < 2 {
		t.Fatalf("only %d of 3 nodes own keys — ring split is degenerate", nodesUsed)
	}

	// Re-submission: every candidate must hit its owning node's cache.
	warm, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d: warm run missed through the router", i)
		}
		if !reflect.DeepEqual(res.Stats, cold.Results[i].Stats) {
			t.Fatalf("candidate %d: cached stats diverge through the router", i)
		}
	}
}

// TestRouterDedupesGloballyAcrossClients checks the point of one-owner
// sharding: the same candidate submitted by different clients lands on the
// same node, so the fleet simulates it once — not once per node.
func TestRouterDedupesGloballyAcrossClients(t *testing.T) {
	rt, servers := threeNodeRouter(t, 3)
	one := tinyCandidates(t, 2, 1)[0]
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, 2),
		Candidates: []Candidate{one},
	}
	for client := 0; client < 5; client++ {
		if _, err := rt.Simulate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	var simulated uint64
	for _, s := range servers {
		simulated += s.shards[isa.RISCV].simulated.Load()
	}
	if simulated != 1 {
		t.Fatalf("fleet simulated %d times for one candidate across 5 clients", simulated)
	}
}

// TestRouterBadRequestFailsFastWithoutFailover checks the 4xx/5xx split the
// router's failover rests on: malformed requests are rejected at the routing
// tier (or by a node) as non-retryable and must never knock nodes out of
// rotation.
func TestRouterBadRequestFailsFastWithoutFailover(t *testing.T) {
	rt, _ := threeNodeRouter(t, 2)
	bad := []*SimulateRequest{
		{Arch: "sparc", Workload: ConvGroupSpec(te.ScaleTiny, 0)},
		{Arch: "riscv", Workload: WorkloadSpec{Kind: "winograd"}},
		{Arch: "riscv", Workload: ConvGroupSpec(te.ScaleTiny, -1)},
	}
	for i, req := range bad {
		_, err := rt.Simulate(context.Background(), req)
		if err == nil {
			t.Fatalf("request %d must fail", i)
		}
		if IsRetryable(err) {
			t.Fatalf("request %d: defect classified retryable: %v", i, err)
		}
		var se *Error
		if !errors.As(err, &se) || se.Status < 400 || se.Status >= 500 {
			t.Fatalf("request %d: want 4xx classification, got %v", i, err)
		}
	}
	for _, n := range rt.nodes {
		if !n.up.Load() {
			t.Fatalf("bad requests took node %s out of rotation", n.id)
		}
	}
	if rr := rt.rerouted.Load(); rr != 0 {
		t.Fatalf("bad requests caused %d re-routes", rr)
	}
}

// TestRouterFailoverDrainsDownNode kills one HTTP node of three and checks
// its key range drains to ring successors: the batch still completes with
// every result intact, nothing is simulated twice on the survivors, and the
// re-routed keys' cache entries live on the successors afterwards.
func TestRouterFailoverDrainsDownNode(t *testing.T) {
	const group, n = 1, 12
	servers := make([]*Server, 3)
	https := make([]*httptest.Server, 3)
	clients := make([]Backend, 3)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		https[i] = httptest.NewServer(servers[i].Handler())
		defer https[i].Close()
		clients[i] = NewClient(https[i].URL)
	}
	// Fixed ring identities: hashed by its ephemeral URL, node 1 now and
	// then owned none of the twelve keys and was never found dead.
	rt, err := NewRouterBackends([]string{"node-a", "node-b", "node-c"}, clients, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}

	https[1].Close() // node 1 dies before the batch arrives

	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	resp, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("failover batch failed: %v", err)
	}
	for i, res := range resp.Results {
		if res.Err != "" {
			t.Fatalf("candidate %d surfaced a per-candidate error through failover: %s", i, res.Err)
		}
		want := referenceStats(t, isa.RISCV, group, req.Candidates[i].Steps)
		if got, ref := normalized(res.Stats), normalized(want); !reflect.DeepEqual(got, ref) {
			t.Fatalf("candidate %d: failover stats diverge", i)
		}
	}
	if rt.nodes[1].up.Load() {
		t.Fatal("dead node still in rotation after failing a sub-batch")
	}
	var simulated int
	for i, s := range servers {
		if i == 1 {
			continue
		}
		simulated += int(s.shards[isa.RISCV].simulated.Load())
	}
	if simulated != n {
		t.Fatalf("survivors simulated %d times for %d unique candidates — duplicate work under failover",
			simulated, n)
	}

	// The drained keys stay owned by the successors while node 1 is down:
	// re-submission is served fully from the survivors' caches.
	warm, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d: re-submission missed after failover", i)
		}
	}
}

// flakyBackend wraps a Backend and fails Simulate while tripped — the
// controllable node fault for recovery tests. handoffTripped fails only
// the replication surface (see handoff_test.go).
type flakyBackend struct {
	Backend
	tripped        atomic.Bool
	handoffTripped atomic.Bool
}

func (f *flakyBackend) Simulate(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	if f.tripped.Load() {
		return nil, &Error{Status: 503, Msg: "injected node fault"}
	}
	return f.Backend.Simulate(ctx, req)
}

func (f *flakyBackend) Statusz(ctx context.Context) (*Statusz, error) {
	if f.tripped.Load() {
		return nil, &Error{Status: 503, Msg: "injected node fault"}
	}
	return f.Backend.Statusz(ctx)
}

// TestRouterProbeRestoresRecoveredNode checks the health-probe half of
// failover: a node that starts answering statusz again re-enters rotation
// and gets its key range back.
func TestRouterProbeRestoresRecoveredNode(t *testing.T) {
	const group, n = 3, 12
	servers := make([]*Server, 3)
	ids := make([]string, 3)
	flaky := make([]*flakyBackend, 3)
	backends := make([]Backend, 3)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		ids[i] = "node-" + string(rune('a'+i))
		flaky[i] = &flakyBackend{Backend: servers[i]}
		backends[i] = flaky[i]
	}
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}

	flaky[0].tripped.Store(true)
	if _, err := rt.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if rt.nodes[0].up.Load() {
		t.Fatal("tripped node still in rotation")
	}

	// Probe while still tripped: must stay down.
	rt.probeOnce(context.Background())
	if rt.nodes[0].up.Load() {
		t.Fatal("probe restored a node that still fails statusz")
	}

	flaky[0].tripped.Store(false)
	rt.probeOnce(context.Background())
	if !rt.nodes[0].up.Load() {
		t.Fatal("probe did not restore the recovered node")
	}

	// Recovered node owns its range again: fresh keys route to it too.
	fresh := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, 3*n)[n:],
	}
	if _, err := rt.Simulate(context.Background(), fresh); err != nil {
		t.Fatal(err)
	}
	if servers[0].cache.len() == 0 {
		t.Fatal("recovered node received no keys")
	}
}

// TestRouterUnservedArchRoutesAroundWithoutEjecting checks the 501 path of
// a heterogeneous fleet: a node whose operator config does not serve the
// requested arch is routed around for that batch only — it stays in rotation
// (its key ranges for other archs remain warm) — and a fleet where no node
// serves the arch fails the batch with the stable 501, not a node-health
// error.
func TestRouterUnservedArchRoutesAroundWithoutEjecting(t *testing.T) {
	riscvOnly := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
	both := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV, isa.X86}, WorkersPerArch: 2})
	rt, err := NewRouterBackends([]string{"riscv-only", "both"},
		[]Backend{riscvOnly, both}, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}

	// x86 batch: only "both" can serve it; "riscv-only" may own some keys
	// and answer 501, which must re-route without ejecting it.
	x86 := &SimulateRequest{
		Arch:     "x86",
		Workload: ConvGroupSpec(te.ScaleTiny, 1),
	}
	for _, c := range tinyCandidates(t, 1, 8) {
		x86.Candidates = append(x86.Candidates, c)
	}
	resp, err := rt.Simulate(context.Background(), x86)
	if err != nil {
		t.Fatalf("heterogeneous fleet failed a servable batch: %v", err)
	}
	for i, res := range resp.Results {
		if res.Err != "" || res.Stats == nil {
			t.Fatalf("candidate %d: %+v", i, res)
		}
	}
	for _, n := range rt.nodes {
		if !n.up.Load() {
			t.Fatalf("unserved arch ejected healthy node %s from rotation", n.id)
		}
	}
	// The riscv key space is untouched: a riscv batch still spreads across
	// both nodes afterwards.
	riscv := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, 1),
		Candidates: tinyCandidates(t, 1, 12),
	}
	if _, err := rt.Simulate(context.Background(), riscv); err != nil {
		t.Fatal(err)
	}
	if riscvOnly.cache.len() == 0 {
		t.Fatal("riscv-only node no longer receives its riscv keys")
	}

	// Nobody serves arm: the batch fails with the node's stable 501 and
	// both nodes stay in rotation.
	arm := &SimulateRequest{
		Arch:       "arm",
		Workload:   ConvGroupSpec(te.ScaleTiny, 1),
		Candidates: tinyCandidates(t, 1, 2),
	}
	_, err = rt.Simulate(context.Background(), arm)
	if err == nil {
		t.Fatal("unservable batch must fail")
	}
	var se *Error
	if !errors.As(err, &se) || se.Status != 501 {
		t.Fatalf("want 501 for fleet-wide unserved arch, got %v", err)
	}
	for _, n := range rt.nodes {
		if !n.up.Load() {
			t.Fatalf("fleet-wide unserved arch ejected node %s", n.id)
		}
	}
}

// TestNewRouterBackendsValidates checks misuse fails at construction, not
// with an index panic inside a request handler.
func TestNewRouterBackendsValidates(t *testing.T) {
	if _, err := NewRouterBackends(nil, nil, RouterConfig{ProbeInterval: -1}); err == nil {
		t.Fatal("zero nodes must be rejected")
	}
	if _, err := NewRouterBackends([]string{"a", "b"}, []Backend{Local()},
		RouterConfig{ProbeInterval: -1}); err == nil {
		t.Fatal("ids/backends length mismatch must be rejected")
	}
}

// TestRouterCancellationIsNotANodeFault checks the caller's own cancellation
// fails the batch without knocking nodes out of rotation — cancellation says
// nothing about node health.
func TestRouterCancellationIsNotANodeFault(t *testing.T) {
	rt, _ := threeNodeRouter(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rt.Simulate(ctx, &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, 1),
		Candidates: tinyCandidates(t, 1, 6),
	})
	if err == nil {
		t.Fatal("canceled batch must fail")
	}
	for _, n := range rt.nodes {
		if !n.up.Load() {
			t.Fatalf("cancellation took node %s out of rotation", n.id)
		}
	}
}

// TestRouterSmoke is the CI smoke path: three in-process nodes behind a
// router, one tuned batch through the unchanged wire protocol, and the
// statusz totals must reconcile — router-aggregated counters equal the sum
// over the per-node statusz, hits+misses equal the candidates routed.
func TestRouterSmoke(t *testing.T) {
	rt, servers := threeNodeRouter(t, 3)
	const group = 1
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, 16),
	}
	for run := 0; run < 2; run++ { // cold then cache-absorbed
		if _, err := rt.Simulate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := rt.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses, canceled, served uint64
	var entries int
	for _, s := range servers {
		st, _ := s.Statusz(context.Background())
		hits += st.CacheHits
		misses += st.CacheMisses
		canceled += st.CacheCanceled
		served += st.Candidates
		entries += st.CacheEntries
	}
	if agg.CacheHits != hits || agg.CacheMisses != misses || agg.CacheCanceled != canceled ||
		agg.CacheEntries != entries {
		t.Fatalf("router statusz does not reconcile with nodes:\nrouter %+v\nnodes hits=%d misses=%d canceled=%d entries=%d",
			agg, hits, misses, canceled, entries)
	}
	if want := uint64(2 * 16); agg.Candidates != want || served != want {
		t.Fatalf("candidates routed %d / served %d, want %d", agg.Candidates, served, want)
	}
	if hits+misses != agg.Candidates {
		t.Fatalf("hits(%d)+misses(%d) != candidates(%d)", hits, misses, agg.Candidates)
	}
	if misses != 16 || hits != 16 {
		t.Fatalf("cold/warm split off: %d misses / %d hits, want 16/16", misses, hits)
	}
	if len(agg.Nodes) != 3 {
		t.Fatalf("router statusz reports %d nodes, want 3", len(agg.Nodes))
	}
	var perNode uint64
	for _, ns := range agg.Nodes {
		if !ns.Up {
			t.Fatalf("healthy node %s reported down", ns.ID)
		}
		perNode += ns.Candidates
	}
	if perNode != agg.Candidates {
		t.Fatalf("per-node routed counts sum to %d, want %d", perNode, agg.Candidates)
	}
	for _, sh := range agg.Shards {
		if sh.Arch == "riscv" && sh.Workers != 3*2 {
			t.Fatalf("aggregated shard workers = %d, want 6", sh.Workers)
		}
	}
}

// TestClassify walks Router.Simulate's decision table case by case, without
// a fleet — including the two orderings that matter: the caller's
// cancellation wins over any node error, and 429 (which is retryable) is
// recognised before generic retryability would call it a node fault.
func TestClassify(t *testing.T) {
	wrap := func(e *Error) error { return fmt.Errorf("service: %w", e) }
	for _, tc := range []struct {
		name       string
		err        error
		callerDone bool
		want       action
	}{
		{"results", nil, false, deliver},
		{"results that beat the caller's cancellation", nil, true, deliver},
		{"501", wrap(unservedf("arch x86 not served")), false, routeAround},
		{"429 is shed, not a node fault", wrap(overloadedf(time.Second, "overloaded")), false, shed},
		{"400", wrap(badRequestf("unknown arch")), false, failRequest},
		{"503", wrap(unavailablef("draining")), false, nodeFault},
		{"unclassified transport error", errors.New("connection reset"), false, nodeFault},
		{"caller canceled, node said 503", wrap(unavailablef("batch canceled")), true, callerCancel},
		{"caller canceled, node said 429", wrap(overloadedf(time.Second, "overloaded")), true, callerCancel},
		{"caller canceled, node said 400", wrap(badRequestf("unknown arch")), true, callerCancel},
		{"caller canceled, transport error", context.Canceled, true, callerCancel},
	} {
		if got := classify(tc.err, tc.callerDone); got != tc.want {
			t.Errorf("%s: classify = %d, want %d", tc.name, got, tc.want)
		}
	}
}
