package loadgen

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/service"
)

// TestAggressorIsolationE2E is the end-to-end fairness experiment on a
// 3-node in-process fleet: the compliant "batch" tenant offers steady
// cache-hit traffic while the "burst" aggressor offers ~10× its fair share
// of fresh simulation keys. Weighted-fair admission must shed the aggressor
// (client-visible 429s), never the compliant tenant, and the compliant
// tenant's tail latency must stay near its solo baseline. The report's
// ledger reconciliation — per tenant and fleet-wide — is asserted via
// ValidateReport.
func TestAggressorIsolationE2E(t *testing.T) {
	cfg := Config{
		Seed:      1,
		Duration:  800 * time.Millisecond,
		Steps:     []float64{2},
		Tenants:   DefaultScenario(),
		Isolation: &IsolationSpec{Compliant: "batch", Aggressor: "burst"},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rt, cleanup, err := LocalFleet(3, service.Config{
		WorkersPerArch:      1,
		MaxQueuedCandidates: 6,
		TenantWeights:       cfg.TenantWeights(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	r := &Runner{Backend: rt, Cfg: cfg, Log: t.Logf}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Reconciliation per tenant and fleet-wide, outcome partitioning, and
	// percentile ordering all live in the report validator.
	if err := ValidateReport(rep); err != nil {
		t.Fatal(err)
	}

	iso := rep.Isolation
	if iso == nil {
		t.Fatal("report has no isolation verdict")
	}
	// The timing-sensitive assertions hold only when service time is not
	// inflated by the race detector: under -race the compliant tenant's
	// in-flight load (rate × slowed latency) genuinely exceeds its fair
	// share, so the under-share guarantees below no longer apply. The
	// structural assertions (reconciliation, aggressor shedding) run in
	// every build.
	if !raceEnabled {
		// The compliant tenant is always under its fair share, and
		// under-share tenants are admitted unconditionally — so zero 429s
		// is a guarantee, not a statistical outcome.
		if iso.CompliantRejected != 0 {
			t.Errorf("compliant tenant was shed %d candidates; fair-share admission must never reject an under-share tenant", iso.CompliantRejected)
		}
		// Tail-latency isolation: the compliant tenant's contended p99
		// stays near its solo baseline. The absolute slack absorbs
		// single-core scheduler noise; the multiplicative term is the
		// real bound on a quiet machine.
		bound := math.Max(4*iso.SoloP99MS, iso.SoloP99MS+250)
		if iso.ContendedP99MS > bound {
			t.Errorf("compliant contended p99 %.1fms exceeds bound %.1fms (solo %.1fms)",
				iso.ContendedP99MS, bound, iso.SoloP99MS)
		}
	}
	// The aggressor offers far past fleet capacity: client-visible
	// shedding must occur (429s that survive router rerouting).
	if iso.AggressorRejected == 0 {
		t.Error("aggressor was never shed a client-visible 429 despite offering ~10x its fair share")
	}

	contended := rep.Steps[len(rep.Steps)-1]
	cRow := tenantRow(&contended, "batch")
	aRow := tenantRow(&contended, "burst")
	if cRow == nil || aRow == nil {
		t.Fatal("contended step missing tenant rows")
	}
	// The compliant tenant's traffic is pooled and warmed: cache hits must
	// dominate (the hit path is what keeps its latency flat while the
	// aggressor's cold keys queue behind the gate). Not every candidate —
	// a batch arriving while the tenant's own fair-share slots are full is
	// rerouted to a ring successor that serves the key cold, which is the
	// gate working as designed, not a cache defect.
	if !raceEnabled && cRow.CacheHits*4 < cRow.Completed*3 {
		t.Errorf("compliant tenant: %d hits of %d completed — pooled traffic must be ≥75%% cache hits after warmup",
			cRow.CacheHits, cRow.Completed)
	}
	// Server-side shed counters can only exceed the client-visible count
	// (rerouted batches are counted at every node that rejected them).
	if contended.Fleet.Rejected < aRow.Rejected {
		t.Errorf("fleet rejected %d < aggressor client-visible rejected %d", contended.Fleet.Rejected, aRow.Rejected)
	}
	t.Logf("isolation: solo p99 %.1fms, contended p99 %.1fms (%.2fx), aggressor shed %d (fleet %d)",
		iso.SoloP99MS, iso.ContendedP99MS, iso.P99Ratio, iso.AggressorRejected, contended.Fleet.Rejected)
}

// TestRunnerReportSmoke runs a small single-tenant Poisson config against a
// 1-node fleet and checks the artifact survives a JSON round trip with its
// validation intact — the schema contract the CI smoke job relies on.
func TestRunnerReportSmoke(t *testing.T) {
	cfg := Config{
		Seed:     5,
		Duration: 300 * time.Millisecond,
		Steps:    []float64{1},
		Tenants: []TenantSpec{{
			Name: "solo-smoke", Rate: 30, BatchMin: 1, BatchMax: 2, Pool: 8,
		}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rt, cleanup, err := LocalFleet(1, service.Config{
		WorkersPerArch: 1,
		TenantWeights:  cfg.TenantWeights(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	rep, err := (&Runner{Backend: rt, Cfg: cfg}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(rep); err != nil {
		t.Fatal(err)
	}

	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(&back); err != nil {
		t.Fatalf("report does not survive a JSON round trip: %v", err)
	}
	if back.TraceSHA256 != rep.TraceSHA256 {
		t.Fatal("trace hash lost in round trip")
	}
}

// TestRunnerCancellation checks a canceled context aborts the run with an
// error instead of emitting a partial report.
func TestRunnerCancellation(t *testing.T) {
	cfg := Config{
		Seed:     9,
		Duration: 10 * time.Second, // far longer than the test will allow
		Steps:    []float64{1},
		Tenants:  []TenantSpec{{Name: "c", Rate: 50, BatchMin: 1, BatchMax: 1, Pool: 4}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rt, cleanup, err := LocalFleet(1, service.Config{WorkersPerArch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := (&Runner{Backend: rt, Cfg: cfg}).Run(ctx); err == nil {
		t.Fatal("canceled run returned a report instead of an error")
	}
}
