package service

import (
	"context"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
)

// Metric and stage names. The span taxonomy (ARCHITECTURE.md "Telemetry"):
// a batch enters admission, its cold candidates wait in queue_wait for a
// shard slot and pay simulate, warm ones are served by cache_lookup (RAM),
// disk_hit (durable store) or singleflight_wait (another caller's flight),
// computed results drain through store_write behind the serve path, and the
// HTTP layer pays encode on the way out. Bounded-memory bookkeeping shows up
// as evict (ARC demotion on the fill path) and compact (background segment
// rewrite on the store's writer goroutine). Router-tier spans: split (key
// hashing + ring grouping), dispatch (one sub-batch round trip to a node),
// reroute (a failover round re-grouping), replicate (write-through fan-out of
// fresh results to ring replicas), antientropy (one replica-diff repair
// round).
const (
	metricStage     = "simtune_stage_duration_seconds"
	metricServe     = "simtune_candidate_serve_seconds"
	metricTenant    = "simtune_tenant_serve_seconds"
	metricBatch     = "simtune_batch_duration_seconds"
	metricRtBatch   = "simtune_router_batch_duration_seconds"
	metricRtDisp    = "simtune_router_dispatch_seconds"
	stageAdmission  = "admission"
	stageQueueWait  = "queue_wait"
	stageCacheHit   = "cache_lookup"
	stageDiskHit    = "disk_hit"
	stageSFWait     = "singleflight_wait"
	stageSimulate   = "simulate"
	stageStoreWrite = "store_write"
	stageEncode     = "encode"
	stageEvict      = "evict"
	stageCompact    = "compact"
	stageSplit      = "split"
	stageDispatch   = "dispatch"
	stageReroute    = "reroute"
	stageReplicate  = "replicate"
	stageAntiEnt    = "antientropy"
)

// Candidate serve outcomes (the per-outcome latency partition; rejected
// batches never serve candidates, so rejection is a batch outcome only).
const (
	outcomeHit      = "hit"
	outcomeDiskHit  = "disk_hit"
	outcomeMiss     = "miss"
	outcomeCanceled = "canceled"
)

// traceRingSize is how many recent batch traces a tier keeps for /v1/traces.
const traceRingSize = 256

// telemetry is one tier's instrument panel: the histogram registry, the
// recent-trace ring, and the slow-batch log hook. Every tier has one.
type telemetry struct {
	m      *obs.Metrics
	traces *obs.TraceRing
	slow   time.Duration
	logf   func(format string, args ...any)

	encode       *obs.Histogram
	storeWrite   *obs.Histogram
	storeCompact *obs.Histogram
	arch         map[isa.Arch]*archTel
}

// archTel pre-registers one architecture's hot-path histograms so workers
// never touch the registry lock.
type archTel struct {
	admission *obs.Histogram
	queueWait *obs.Histogram
	cacheHit  *obs.Histogram
	diskHit   *obs.Histogram
	sfWait    *obs.Histogram
	simulate  *obs.Histogram
	evict     *obs.Histogram

	serveHit, serveDiskHit, serveMiss, serveCanceled *obs.Histogram

	batchOK, batchCanceled, batchRejected, batchError *obs.Histogram
}

// newTelemetry builds the panel for a leaf server (archs non-empty) or a
// router (archs nil — router histograms are registered by the caller).
func newTelemetry(slow time.Duration, archs []isa.Arch) *telemetry {
	t := &telemetry{
		m:      obs.NewMetrics(),
		traces: obs.NewTraceRing(traceRingSize),
		slow:   slow,
		logf:   log.Printf,
		arch:   make(map[isa.Arch]*archTel, len(archs)),
	}
	t.encode = t.m.Histogram(metricStage, obs.Labels("stage", stageEncode))
	t.storeWrite = t.m.Histogram(metricStage, obs.Labels("stage", stageStoreWrite))
	t.storeCompact = t.m.Histogram(metricStage, obs.Labels("stage", stageCompact))
	for _, a := range archs {
		as := string(a)
		stage := func(s string) *obs.Histogram {
			return t.m.Histogram(metricStage, obs.Labels("stage", s, "arch", as))
		}
		serve := func(o string) *obs.Histogram {
			return t.m.Histogram(metricServe, obs.Labels("arch", as, "outcome", o))
		}
		batch := func(o string) *obs.Histogram {
			return t.m.Histogram(metricBatch, obs.Labels("arch", as, "outcome", o))
		}
		t.arch[a] = &archTel{
			admission: stage(stageAdmission),
			queueWait: stage(stageQueueWait),
			cacheHit:  stage(stageCacheHit),
			diskHit:   stage(stageDiskHit),
			sfWait:    stage(stageSFWait),
			simulate:  stage(stageSimulate),
			evict:     stage(stageEvict),

			serveHit:      serve(outcomeHit),
			serveDiskHit:  serve(outcomeDiskHit),
			serveMiss:     serve(outcomeMiss),
			serveCanceled: serve(outcomeCanceled),

			batchOK:       batch("ok"),
			batchCanceled: batch("canceled"),
			batchRejected: batch("rejected"),
			batchError:    batch("error"),
		}
	}
	return t
}

// batch is one batch's telemetry scope at one tier: the trace it opened, when,
// and what the trace and the slow-batch line call the batch.
type batch struct {
	tel   *telemetry
	tr    *obs.ActiveTrace
	start time.Time
	tier  string
	req   *SimulateRequest
	sig   string // the workload's signature
	agg   batchAgg
}

// begin opens a batch's scope at this tier under the context's trace ID
// (minting one if the batch arrived without — direct in-process callers).
// It runs before validation, so even a malformed batch leaves a trace, and
// returns the possibly-updated context so every sub-call, in process or over
// the wire, carries the same identity.
func (t *telemetry) begin(ctx context.Context, tier string, req *SimulateRequest) (context.Context, *batch) {
	ctx, id := obs.EnsureTrace(ctx)
	b := &batch{
		tel: t, tr: obs.StartTrace(t.traces, id, tier), start: time.Now(),
		tier: tier, req: req, sig: req.Workload.signature(),
	}
	b.tr.Describe(req.Arch, b.sig, len(req.Candidates))
	return ctx, b
}

// finish seals the batch: aggregated stage spans, the trace, the outcome
// histogram (nil on error paths that have no outcome series — Observe
// discards), and the slow-batch line — one greppable line with the trace ID
// as the join key into /v1/traces.
func (b *batch) finish(outcome *obs.Histogram, err error) {
	b.agg.emit(b.tr, b.start)
	dur := time.Since(b.start)
	b.tr.Finish(err)
	outcome.Observe(dur)
	if t := b.tel; t.slow > 0 && dur >= t.slow {
		errs := ""
		if err != nil {
			errs = err.Error()
		}
		t.logf("obs: slow-batch trace=%s tier=%s arch=%s workload=%s candidates=%d dur=%s threshold=%s err=%q",
			b.tr.ID(), b.tier, b.req.Arch, b.sig, len(b.req.Candidates), dur.Round(time.Microsecond), t.slow, errs)
	}
}

// stageLatencies summarizes every histogram as statusz-friendly quantiles.
func stageLatencies(hists []obs.HistSnapshot) []StageLatency {
	out := make([]StageLatency, 0, len(hists))
	for _, h := range hists {
		if h.Count == 0 {
			continue
		}
		out = append(out, StageLatency{
			Metric: h.Name,
			Labels: h.Labels,
			Count:  h.Count,
			P50MS:  durMS(h.Quantile(0.50)),
			P90MS:  durMS(h.Quantile(0.90)),
			P99MS:  durMS(h.Quantile(0.99)),
			MaxMS:  durMS(h.Max()),
			MeanMS: durMS(h.Mean()),
		})
	}
	return out
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tenantServe returns the tenant's serve-latency histogram. Unlike the
// per-arch panel this registers lazily — tenants appear with traffic — but
// only once per tenant (tenantSet caches the ledger), so workers still never
// touch the registry lock.
func (t *telemetry) tenantServe(tenant string) *obs.Histogram {
	return t.m.Histogram(metricTenant, obs.Labels("tenant", tenant))
}

// candTimings collects one candidate's cold-path stage durations as it moves
// through resultCache.do and shard.exec. RAM hits leave every field zero:
// their whole cost is the serve total the caller measures around the do()
// call.
type candTimings struct {
	sfWait    time.Duration // waited on another caller's in-flight compute
	disk      time.Duration // durable-store read (hit or probe)
	diskHit   bool
	queueWait time.Duration // waited for a shard worker slot
	simulate  time.Duration // build + simulate on the slot
	simulated bool
	evict     time.Duration // ARC bookkeeping on a fill that evicted
	evicted   bool
}

// stageAgg accumulates one stage's events across a batch's workers so the
// trace records one aggregated span per stage instead of one per candidate —
// a 10k-candidate batch would blow the per-trace span cap in its first
// worker otherwise. The histograms still see every individual event.
type stageAgg struct {
	n   atomic.Int64
	sum atomic.Int64
}

func (a *stageAgg) add(d time.Duration) { a.n.Add(1); a.sum.Add(int64(d)) }

func (a *stageAgg) span(tr *obs.ActiveTrace, stage string, start time.Time) {
	if n := a.n.Load(); n > 0 {
		tr.Span(stage, start, time.Duration(a.sum.Load()), int(n), "")
	}
}

// batchAgg is a batch's per-stage aggregation, filled concurrently by the
// workers and emitted as at most one span per stage when the batch seals.
type batchAgg struct {
	cacheHit, diskHit, sfWait, queueWait, simulate, evict stageAgg
}

func (g *batchAgg) emit(tr *obs.ActiveTrace, start time.Time) {
	g.cacheHit.span(tr, stageCacheHit, start)
	g.diskHit.span(tr, stageDiskHit, start)
	g.sfWait.span(tr, stageSFWait, start)
	g.queueWait.span(tr, stageQueueWait, start)
	g.simulate.span(tr, stageSimulate, start)
	g.evict.span(tr, stageEvict, start)
}

// record folds one served candidate into the per-arch histograms and the
// batch's aggregated spans. total is the full do() duration — on a RAM
// hit that is the entire serve cost, which is why the hit path's telemetry
// bill is two clock reads plus the Observe calls below.
func (at *archTel) record(agg *batchAgg, tm *candTimings, total time.Duration, hit bool, err error) {
	switch {
	case err != nil:
		at.serveCanceled.Observe(total)
	case hit && tm.diskHit:
		at.serveDiskHit.Observe(total)
		at.diskHit.Observe(tm.disk)
		agg.diskHit.add(tm.disk)
	case hit:
		at.serveHit.Observe(total)
		at.cacheHit.Observe(total)
		agg.cacheHit.add(total)
	default:
		at.serveMiss.Observe(total)
	}
	if tm.sfWait > 0 {
		at.sfWait.Observe(tm.sfWait)
		agg.sfWait.add(tm.sfWait)
	}
	if tm.queueWait > 0 {
		at.queueWait.Observe(tm.queueWait)
		agg.queueWait.add(tm.queueWait)
	}
	if tm.simulated {
		at.simulate.Observe(tm.simulate)
		agg.simulate.add(tm.simulate)
	}
	if tm.evicted {
		at.evict.Observe(tm.evict)
		agg.evict.add(tm.evict)
	}
}
