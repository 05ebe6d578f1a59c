package service

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TenantHeader is the wire header carrying the client's tenant identity.
// Like the trace header it travels client→router→node: Client.post sets it
// from the context, backendHandler reads it back into the context, and a
// router forwards the same context to its node clients — so one tenant ID
// survives retries, reroutes and the replication fan-out untouched.
const TenantHeader = "X-Simtune-Tenant"

// DefaultTenant is the ledger every unidentified batch lands in: no header,
// no context tag, or an identity that fails validTenant. Existing
// single-tenant clients therefore keep working unchanged — they are simply
// all the "default" tenant, sharing one fair-share gate exactly as before.
const DefaultTenant = "default"

type tenantCtxKey struct{}

// WithTenant tags ctx with a tenant identity. Batches simulated under the
// returned context are admitted, accounted and histogrammed under that
// tenant at every tier the context (or the wire header it becomes) reaches.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFrom returns the context's tenant identity, "" when untagged.
func TenantFrom(ctx context.Context) string {
	id, _ := ctx.Value(tenantCtxKey{}).(string)
	return id
}

// maxTenantLen bounds tenant identities; anything longer is treated as
// unidentified rather than letting one client mint unbounded label values.
const maxTenantLen = 64

// validTenant accepts identities safe to use verbatim as a Prometheus label
// value and a statusz key: 1..64 chars of [a-zA-Z0-9_.:/-]. Quotes,
// backslashes and control characters would corrupt the text exposition, so
// anything else falls back to DefaultTenant instead of being escaped — a
// malformed header should not be able to grow the label cardinality.
func validTenant(s string) bool {
	if len(s) == 0 || len(s) > maxTenantLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '.' || c == ':' || c == '/' || c == '-':
		default:
			return false
		}
	}
	return true
}

// tenantOf resolves the context's identity to the ledger it is accounted
// under: the tagged tenant when present and valid, DefaultTenant otherwise.
func tenantOf(ctx context.Context) string {
	if id := TenantFrom(ctx); validTenant(id) {
		return id
	}
	return DefaultTenant
}

// tenantLedger is one tenant's row of the node's tenant table (admission):
// its fair-share weight and gate occupancy, and the only place candidates,
// rejections, hits, misses and cancellations are counted (Server.ledgers
// sums the rows), plus a per-tenant serve-latency histogram. Per tenant,
// hits+misses+canceled == candidates; rejected stays a parallel ledger
// outside it, so fairness bookkeeping can never unbalance the reconciliation
// operators already watch. Simulate looks the row up once per batch, so
// per-candidate accounting inside the workers is pure atomics on the row.
type tenantLedger struct {
	name   string
	weight float64 // fixed at creation
	held   int64   // candidates admitted (queued or running); guarded by admission.mu

	candidates atomic.Uint64
	rejected   atomic.Uint64
	hits       atomic.Uint64
	misses     atomic.Uint64
	canceled   atomic.Uint64
	serve      *obs.Histogram
}

// TenantStatus is one tenant's row in statusz: its fair-share weight, the
// candidates it currently holds admitted, and its slice of the candidate
// ledgers. Per tenant, CacheHits+CacheMisses+CacheCanceled == Candidates
// reconciles exactly like the fleet-wide invariant; RejectedCandidates is
// the parallel ledger of work the fairness gate refused. On a router, the
// sums over reachable nodes, merged by tenant name.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	// Weight is the configured fair-share weight (1 unless
	// Config.TenantWeights says otherwise; 0 on router aggregates when
	// nodes disagree is impossible — weights are per-node config, the
	// router reports the max it saw).
	Weight float64 `json:"weight,omitempty"`
	// Admitted is the candidates this tenant currently holds in the
	// admission gate (queued or running).
	Admitted           int64  `json:"admitted"`
	Candidates         uint64 `json:"candidates"`
	RejectedCandidates uint64 `json:"rejected_candidates"`
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheCanceled      uint64 `json:"cache_canceled"`
}

// statuses renders the tenant table in one pass under the gate's lock, so a
// row's weight, occupancy and ledgers are read together; sorted by tenant
// name (nil before the first batch).
func (a *admission) statuses() []TenantStatus {
	a.mu.Lock()
	var out []TenantStatus
	for _, g := range a.rows {
		out = append(out, TenantStatus{
			Tenant:             g.name,
			Weight:             g.weight,
			Admitted:           g.held,
			Candidates:         g.candidates.Load(),
			RejectedCandidates: g.rejected.Load(),
			CacheHits:          g.hits.Load(),
			CacheMisses:        g.misses.Load(),
			CacheCanceled:      g.canceled.Load(),
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// recordServe folds one served candidate into the tenant's ledger: the
// hit/miss/canceled partition plus the serve-latency histogram.
func (l *tenantLedger) recordServe(total time.Duration, hit bool, err error) {
	switch {
	case err != nil:
		l.canceled.Add(1)
	case hit:
		l.hits.Add(1)
	default:
		l.misses.Add(1)
	}
	l.serve.Observe(total)
}
