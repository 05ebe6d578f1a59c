package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
)

// Report is the saturation artifact `simtune loadgen -report` emits as
// JSON: per-tenant latency percentiles vs offered load, reject rates, and
// the fleet-ledger reconciliation for every phase, plus the
// aggressor-isolation verdict when the config names a tenant pair.
type Report struct {
	// Seed reproduces the run; TraceSHA256 is the deterministic witness —
	// a hash over every phase's offered-load trace, identical across runs
	// of the same seed and config on any host.
	Seed        uint64  `json:"seed"`
	TraceSHA256 string  `json:"trace_sha256"`
	DurationSec float64 `json:"duration_sec"`
	// Tenants echoes the (normalized) mix the run offered.
	Tenants []TenantSpec `json:"tenants"`
	// Steps are the measured phases in execution order: the optional solo
	// baseline first, then one step per offered-load multiplier.
	Steps []StepReport `json:"steps"`
	// Isolation is the aggressor-isolation verdict (nil when the config
	// names no tenant pair).
	Isolation *IsolationReport `json:"isolation,omitempty"`
}

// StepReport is one measured phase.
type StepReport struct {
	// Phase names the step: "solo" or "x<multiplier>".
	Phase string `json:"phase"`
	// Multiplier scales every tenant's configured rate in this phase.
	Multiplier  float64 `json:"multiplier"`
	DurationSec float64 `json:"duration_sec"`
	// TraceHash is this phase's offered-load trace hash (Plan.Hash).
	TraceHash string `json:"trace_hash"`
	// Tenants is the client-side per-tenant view (offered vs outcome and
	// batch latency percentiles).
	Tenants []TenantStepReport `json:"tenants"`
	// Fleet is the server-side statusz movement across the phase.
	Fleet FleetReport `json:"fleet"`
}

// TenantStepReport is one tenant's client-side measurements in one phase.
// Completed+Rejected+Errored == OfferedCandidates (every offered candidate
// has exactly one outcome; the run waits for all in-flight batches).
type TenantStepReport struct {
	Tenant            string `json:"tenant"`
	OfferedBatches    uint64 `json:"offered_batches"`
	OfferedCandidates uint64 `json:"offered_candidates"`
	// Completed candidates came back with results; CacheHits/CacheMisses
	// partition them by Result.CacheHit.
	Completed uint64 `json:"completed"`
	// Rejected candidates were shed by the admission gate (429).
	Rejected uint64 `json:"rejected"`
	// Errored candidates failed for any other reason.
	Errored     uint64  `json:"errored"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
}

// FleetReport is the server-side statusz delta across one phase, with the
// ledger invariants evaluated: Reconciled is the fleet-wide
// hits+misses+canceled == candidates check, TenantsReconciled the same per
// tenant row. Candidates counts admitted work (the sum of the per-tenant
// ledgers, which on a router is the node-side view); Offered counts what the
// backend received before shedding — on a single node the two coincide minus
// rejections, on a router Offered also excludes reroute retries while
// Rejected (a node-counter sum) includes every per-node shed, so it can
// exceed the client-visible 429s.
type FleetReport struct {
	Offered           uint64              `json:"offered"`
	Candidates        uint64              `json:"candidates"`
	CacheHits         uint64              `json:"cache_hits"`
	CacheMisses       uint64              `json:"cache_misses"`
	CacheCanceled     uint64              `json:"cache_canceled"`
	Rejected          uint64              `json:"rejected"`
	Reconciled        bool                `json:"reconciled"`
	TenantsReconciled bool                `json:"tenants_reconciled"`
	Tenants           []TenantFleetReport `json:"tenants,omitempty"`
}

// TenantFleetReport is one tenant's server-side ledger movement in a phase.
type TenantFleetReport struct {
	Tenant        string `json:"tenant"`
	Candidates    uint64 `json:"candidates"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CacheCanceled uint64 `json:"cache_canceled"`
	Rejected      uint64 `json:"rejected"`
}

// IsolationReport compares the compliant tenant's contended tail latency
// against its solo baseline while the aggressor overdrives its share.
type IsolationReport struct {
	Compliant string `json:"compliant"`
	Aggressor string `json:"aggressor"`
	// SoloP99MS is the compliant tenant's p99 running alone;
	// ContendedP99MS its p99 in the sweep step whose multiplier is closest
	// to 1 (the nominal mix); P99Ratio the quotient.
	SoloP99MS      float64 `json:"solo_p99_ms"`
	ContendedP99MS float64 `json:"contended_p99_ms"`
	P99Ratio       float64 `json:"p99_ratio"`
	// CompliantRejected / AggressorRejected count 429-shed candidates in
	// the contended step: fairness means the former stays 0 while the
	// latter absorbs the shedding.
	CompliantRejected uint64 `json:"compliant_rejected"`
	AggressorRejected uint64 `json:"aggressor_rejected"`
	// Isolated is the verdict: the compliant tenant lost no work and its
	// contended p99 stayed within 2× of solo (with a 25ms absolute floor
	// so near-zero baselines don't fail on scheduler jitter).
	Isolated bool `json:"isolated"`
}

// isolationBoundMS is the absolute slack added to the 2×-of-solo bound.
const isolationBoundMS = 25

// finish derives the run-level fields that need the whole step list: the
// combined trace hash and the isolation verdict.
func (r *Report) finish(cfg *Config) {
	h := sha256.New()
	for _, s := range r.Steps {
		h.Write([]byte(s.Phase))
		h.Write([]byte(s.TraceHash))
	}
	r.TraceSHA256 = hex.EncodeToString(h.Sum(nil))

	iso := cfg.Isolation
	if iso == nil {
		return
	}
	var solo, contended *StepReport
	bestDist := math.Inf(1)
	for i := range r.Steps {
		s := &r.Steps[i]
		if s.Phase == "solo" {
			solo = s
			continue
		}
		if d := math.Abs(s.Multiplier - 1); d < bestDist {
			bestDist, contended = d, s
		}
	}
	if solo == nil || contended == nil {
		return
	}
	s := tenantRow(solo, iso.Compliant)
	c := tenantRow(contended, iso.Compliant)
	a := tenantRow(contended, iso.Aggressor)
	if s == nil || c == nil || a == nil {
		return
	}
	rep := &IsolationReport{Compliant: iso.Compliant, Aggressor: iso.Aggressor}
	rep.SoloP99MS = s.P99MS
	rep.ContendedP99MS = c.P99MS
	rep.CompliantRejected = c.Rejected
	rep.AggressorRejected = a.Rejected
	if rep.SoloP99MS > 0 {
		rep.P99Ratio = rep.ContendedP99MS / rep.SoloP99MS
	}
	bound := math.Max(2*rep.SoloP99MS, rep.SoloP99MS+isolationBoundMS)
	rep.Isolated = rep.CompliantRejected == 0 && rep.ContendedP99MS <= bound
	r.Isolation = rep
}

// tenantRow finds a tenant's row in a step (nil if absent).
func tenantRow(s *StepReport, name string) *TenantStepReport {
	for i := range s.Tenants {
		if s.Tenants[i].Tenant == name {
			return &s.Tenants[i]
		}
	}
	return nil
}

// ValidateReport checks a report's internal consistency — what the CI smoke
// job (and the e2e suite) asserts about an artifact regardless of the
// numbers inside: the trace hash is present, every phase reconciles, every
// tenant's outcomes partition its offered load, and percentile ordering
// holds.
func ValidateReport(r *Report) error {
	if len(r.TraceSHA256) != 64 {
		return fmt.Errorf("loadgen: report: bad trace_sha256 %q", r.TraceSHA256)
	}
	if len(r.Steps) == 0 {
		return fmt.Errorf("loadgen: report: no steps")
	}
	for _, s := range r.Steps {
		if len(s.TraceHash) != 64 {
			return fmt.Errorf("loadgen: report: step %s: bad trace_hash %q", s.Phase, s.TraceHash)
		}
		if !s.Fleet.Reconciled {
			return fmt.Errorf("loadgen: report: step %s: fleet ledger does not reconcile (hits %d + misses %d + canceled %d != candidates %d)",
				s.Phase, s.Fleet.CacheHits, s.Fleet.CacheMisses, s.Fleet.CacheCanceled, s.Fleet.Candidates)
		}
		if !s.Fleet.TenantsReconciled {
			return fmt.Errorf("loadgen: report: step %s: per-tenant ledgers do not reconcile", s.Phase)
		}
		for _, t := range s.Tenants {
			if t.Completed+t.Rejected+t.Errored != t.OfferedCandidates {
				return fmt.Errorf("loadgen: report: step %s tenant %s: completed %d + rejected %d + errored %d != offered %d",
					s.Phase, t.Tenant, t.Completed, t.Rejected, t.Errored, t.OfferedCandidates)
			}
			if t.CacheHits+t.CacheMisses != t.Completed {
				return fmt.Errorf("loadgen: report: step %s tenant %s: hits %d + misses %d != completed %d",
					s.Phase, t.Tenant, t.CacheHits, t.CacheMisses, t.Completed)
			}
			if t.P50MS > t.P99MS || t.P99MS > t.MaxMS {
				return fmt.Errorf("loadgen: report: step %s tenant %s: percentile ordering violated (p50 %.3f, p99 %.3f, max %.3f)",
					s.Phase, t.Tenant, t.P50MS, t.P99MS, t.MaxMS)
			}
		}
	}
	return nil
}
