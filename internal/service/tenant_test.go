package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/isa"
)

// findTenant returns the named row of a statusz tenant table, nil if absent.
func findTenant(rows []TenantStatus, name string) *TenantStatus {
	for i := range rows {
		if rows[i].Tenant == name {
			return &rows[i]
		}
	}
	return nil
}

// TestWeightedFairAdmissionGate exercises the admission gate's fair-share
// arithmetic directly: weighted limits under contention, work conservation
// when alone, the idle-server liveness exception, and re-admission as a
// tenant drains back under its share.
func TestWeightedFairAdmissionGate(t *testing.T) {
	var a admission
	a.init(8, map[string]float64{"gold": 3}, newTelemetry(0, nil))
	gold, bronze := a.tenant("gold"), a.tenant("bronze")

	// Liveness: an idle gate admits even an oversized batch.
	if !a.tryAcquire(bronze, 12) {
		t.Fatal("idle gate refused an oversized batch")
	}
	a.release(bronze, 12)
	if a.cur.Load() != 0 {
		t.Fatalf("gate leaked %d after release", a.cur.Load())
	}

	// Work conservation: a tenant alone (after the first admission) sees
	// the whole gate, not a pre-divided share.
	if !a.tryAcquire(bronze, 3) || !a.tryAcquire(bronze, 5) {
		t.Fatal("lone tenant refused within the full gate")
	}
	if a.tryAcquire(bronze, 1) {
		t.Fatal("gate admitted past max")
	}

	// gold (weight 3) arrives against bronze (weight 1, holding 8):
	// W = 4, gold's limit = 8·3/4 = 6 — admitted despite the full gate
	// (the bounded transient overshoot that buys the fairness guarantee).
	if !a.tryAcquire(gold, 6) {
		t.Fatal("under-share weighted tenant was refused")
	}
	if a.tryAcquire(gold, 1) {
		t.Fatal("gold admitted past its 6-candidate share")
	}
	// bronze's limit under contention is 8·1/4 = 2; it holds 8.
	if a.tryAcquire(bronze, 1) {
		t.Fatal("over-share tenant admitted while contended")
	}
	// Draining to 1 puts bronze back under its share: admitted again,
	// then capped exactly at the share boundary.
	a.release(bronze, 7)
	if !a.tryAcquire(bronze, 1) {
		t.Fatal("tenant back under its share was refused")
	}
	if a.tryAcquire(bronze, 1) {
		t.Fatal("bronze admitted past its contended share of 2")
	}

	if got := gold.held; got != 6 {
		t.Fatalf("gold occupancy %d, want 6", got)
	}
	if got := bronze.held; got != 2 {
		t.Fatalf("bronze occupancy %d, want 2", got)
	}
	if gold.weight != 3 || bronze.weight != 1 {
		t.Fatalf("weights %v/%v, want 3/1", gold.weight, bronze.weight)
	}
}

// TestFairShareProtectsUnderShareTenant pins the server-level guarantee the
// loadgen isolation suite builds on: with one tenant hogging the whole gate,
// a second tenant's batch within its share is admitted and served, while the
// hog's next batch is 429d — and both outcomes land in the right per-tenant
// statusz ledgers, each reconciling independently. While the hog still holds
// the gate, statusz shows its occupancy and the configured weights, and the
// admitted gauge agrees with the rows.
func TestFairShareProtectsUnderShareTenant(t *testing.T) {
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2, MaxQueuedCandidates: 8,
		// default's share against the hog is 8·2/3 = 5, still above its
		// 2-candidate batch below.
		TenantWeights: map[string]float64{DefaultTenant: 2},
	})
	// The hog holds the entire gate, the way 8 admitted candidates would.
	hogRow := srv.admit.tenant("hog")
	if !srv.admit.tryAcquire(hogRow, 8) {
		t.Fatal("gate refused the first acquisition")
	}
	req := func(n int) *SimulateRequest {
		return &SimulateRequest{
			Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
			Candidates: tinyCandidates(t, 1, n),
		}
	}

	// guest's share with two active equal-weight tenants is 8/2 = 4: a
	// 3-candidate batch is under it and must be served despite the gate
	// being globally full.
	resp, err := srv.Simulate(WithTenant(context.Background(), "guest"), req(3))
	if err != nil || len(resp.Results) != 3 {
		t.Fatalf("under-share guest was refused: %v", err)
	}
	// The hog is past its share: rejected, not queued.
	if _, err := srv.Simulate(WithTenant(context.Background(), "hog"), req(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-share hog got %v, want ErrOverloaded", err)
	}
	// An untagged batch lands in the default ledger — and the default
	// tenant is under its share too, so it is served.
	if _, err := srv.Simulate(context.Background(), req(2)); err != nil {
		t.Fatalf("untagged batch refused: %v", err)
	}

	// The held gate as statusz shows it: the hog's 8 candidates are its
	// row's occupancy, the served batches hold none, each row carries its
	// weight, and the scrape's admitted gauge is the rows' sum.
	st, err := srv.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := srv.MetricsSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	held := map[string]int64{"hog": 8, "guest": 0, DefaultTenant: 0}
	weight := map[string]float64{"hog": 1, "guest": 1, DefaultTenant: 2}
	if len(st.Tenants) != len(held) {
		t.Fatalf("tenant rows %+v, want hog, guest and default", st.Tenants)
	}
	var admitted int64
	for _, row := range st.Tenants {
		if row.Admitted != held[row.Tenant] || row.Weight != weight[row.Tenant] {
			t.Fatalf("tenant %s holds %d at weight %v, want %d at %v",
				row.Tenant, row.Admitted, row.Weight, held[row.Tenant], weight[row.Tenant])
		}
		admitted += row.Admitted
	}
	gauge := -1.0
	for _, m := range snap.Gauges {
		if m.Name == "simtune_admitted_candidates" {
			gauge = m.Value
		}
	}
	if gauge != float64(admitted) {
		t.Fatalf("simtune_admitted_candidates %v, want the rows' sum %d", gauge, admitted)
	}
	srv.admit.release(hogRow, 8)

	st, err = srv.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	guest, hog, def := findTenant(st.Tenants, "guest"), findTenant(st.Tenants, "hog"), findTenant(st.Tenants, DefaultTenant)
	if guest == nil || hog == nil || def == nil {
		t.Fatalf("missing tenant rows in %+v", st.Tenants)
	}
	if guest.Candidates != 3 || guest.RejectedCandidates != 0 {
		t.Fatalf("guest ledger %+v, want 3 accepted / 0 rejected", guest)
	}
	if hog.Candidates != 0 || hog.RejectedCandidates != 1 {
		t.Fatalf("hog ledger %+v, want 0 accepted / 1 rejected", hog)
	}
	if def.Candidates != 2 {
		t.Fatalf("default ledger %+v, want the 2 untagged candidates", def)
	}
	// Every row reconciles on its own, and the rows sum to the global
	// ledgers — the property fleetDelta in internal/loadgen depends on.
	var sum uint64
	for _, row := range st.Tenants {
		if row.CacheHits+row.CacheMisses+row.CacheCanceled != row.Candidates {
			t.Fatalf("tenant %s does not reconcile: %+v", row.Tenant, row)
		}
		sum += row.Candidates
	}
	if sum != st.Candidates {
		t.Fatalf("tenant rows sum to %d candidates, global ledger has %d", sum, st.Candidates)
	}
}

// TestTenantHeaderTravelsWire pins the wire contract: a context tenant
// becomes the X-Simtune-Tenant header, the server accounts the batch under
// it, and identities that fail validation (malformed or oversized) fall back
// to the default ledger instead of minting new label values.
func TestTenantHeaderTravelsWire(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL)
	req := &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 2),
	}

	if _, err := cl.Simulate(WithTenant(context.Background(), "acme-prod"), req); err != nil {
		t.Fatal(err)
	}
	// A header value with characters unsafe for a Prometheus label, and one
	// past the length bound: both must resolve to the default tenant.
	for _, bad := range []string{"bad tenant!", strings.Repeat("x", maxTenantLen+1)} {
		if _, err := cl.Simulate(WithTenant(context.Background(), bad), req); err != nil {
			t.Fatal(err)
		}
	}

	st, err := srv.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if row := findTenant(st.Tenants, "acme-prod"); row == nil || row.Candidates != 2 {
		t.Fatalf("acme-prod row %+v, want 2 candidates accounted over the wire", row)
	}
	if row := findTenant(st.Tenants, DefaultTenant); row == nil || row.Candidates != 4 {
		t.Fatalf("default row %+v, want both invalid-identity batches (4 candidates)", row)
	}
	for _, row := range st.Tenants {
		if row.Tenant != "acme-prod" && row.Tenant != DefaultTenant {
			t.Fatalf("invalid identity minted ledger %q", row.Tenant)
		}
	}

	// The tenant label must reach the Prometheus exposition — as a quoted,
	// parseable label value, which is what validTenant guarantees.
	mresp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	names := validatePrometheus(t, string(body))
	if !names[metricTenant+"_count"] {
		t.Fatalf("exposition lacks %s:\n%s", metricTenant, body)
	}
	if !strings.Contains(string(body), `tenant="acme-prod"`) {
		t.Fatal("exposition lacks the tenant label value")
	}
	if strings.Contains(string(body), "bad tenant!") {
		t.Fatal("invalid identity leaked into the exposition")
	}
}

// TestRouterTenantStatuszMerge pins the router aggregate: per-node tenant
// rows merge by name with counters summed, occupancy summed, and the weight
// reported as the max seen — so one fleet-wide row per tenant regardless of
// which nodes its batches landed on.
func TestRouterTenantStatuszMerge(t *testing.T) {
	weights := map[string]float64{"acme": 2}
	servers := make([]*Server, 2)
	backends := make([]Backend, 2)
	for i := range servers {
		servers[i] = mustServer(t, Config{
			Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2, TenantWeights: weights,
		})
		backends[i] = servers[i]
	}
	rt, err := NewRouterBackends([]string{"node-a", "node-b"}, backends,
		RouterConfig{ProbeInterval: -1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Land acme batches on both nodes directly (bypassing ring placement so
	// the split is known), then read the merged view through the router.
	ctx := WithTenant(context.Background(), "acme")
	for i, n := range []int{3, 2} {
		if _, err := servers[i].Simulate(ctx, &SimulateRequest{
			Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
			Candidates: tinyCandidates(t, 1, n),
		}); err != nil {
			t.Fatal(err)
		}
	}

	st, err := rt.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	row := findTenant(st.Tenants, "acme")
	if row == nil {
		t.Fatalf("router statusz lacks the acme row: %+v", st.Tenants)
	}
	if row.Candidates != 5 {
		t.Fatalf("merged candidates %d, want 3+2 across nodes", row.Candidates)
	}
	if row.CacheHits+row.CacheMisses+row.CacheCanceled != row.Candidates {
		t.Fatalf("merged row does not reconcile: %+v", row)
	}
	if row.Weight != 2 {
		t.Fatalf("merged weight %v, want the configured 2", row.Weight)
	}
	if row.Admitted != 0 {
		t.Fatalf("merged occupancy %d after both batches drained", row.Admitted)
	}
}
