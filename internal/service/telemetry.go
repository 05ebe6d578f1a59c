package service

import (
	"context"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
)

const (
	metricStage   = "simtune_stage_duration_seconds"
	metricServe   = "simtune_candidate_serve_seconds"
	metricTenant  = "simtune_tenant_serve_seconds"
	metricBatch   = "simtune_batch_duration_seconds"
	metricRtBatch = "simtune_router_batch_duration_seconds"
	metricRtDisp  = "simtune_router_dispatch_seconds"
)

// stage indexes stageNames. Spans (ARCHITECTURE.md "Telemetry"): a node's
// admission, queue_wait, simulate, cache_lookup (RAM), disk_hit,
// singleflight_wait, evict (ARC demotion) and encode; the router's split,
// dispatch (one sub-batch round trip) and reroute. store_write (the store's
// writer goroutine), replicate and antientropy are histograms.
type stage uint8

const (
	stAdmission stage = iota
	stQueueWait
	stCacheLookup
	stDiskHit
	stSFWait
	stSimulate
	stEvict
	stEncode
	stStoreWrite
	stSplit
	stDispatch
	stReroute
	stReplicate
	stAntiEntropy
	numStages

	// numNodeStages counts the stages a node registers per arch. They come
	// first, so a candidate's timings and a batch's spans index them directly.
	numNodeStages = stEvict + 1
)

// outcome indexes outcomeNames: how a candidate was served or a batch ended
// (a rejected batch serves no candidate, so rejection is a batch outcome).
type outcome uint8

const (
	outHit outcome = iota
	outDiskHit
	outMiss
	outOK
	outCanceled
	outRejected
	outError
	outOverloaded
	outUnserved
	outUndeliverable
	numOutcomes
)

// stageNames and outcomeNames are the one place a stage or an outcome is
// spelled. The lists name the series a tier registers besides a node's
// per-arch stages, in registration order: the order /v1/metrics renders and
// statusz.stages summarizes.
var (
	stageNames = [numStages]string{
		stAdmission:   "admission",
		stQueueWait:   "queue_wait",
		stCacheLookup: "cache_lookup",
		stDiskHit:     "disk_hit",
		stSFWait:      "singleflight_wait",
		stSimulate:    "simulate",
		stEvict:       "evict",
		stEncode:      "encode",
		stStoreWrite:  "store_write",
		stSplit:       "split",
		stDispatch:    "dispatch",
		stReroute:     "reroute",
		stReplicate:   "replicate",
		stAntiEntropy: "antientropy",
	}
	outcomeNames = [numOutcomes]string{
		outHit:           "hit",
		outDiskHit:       "disk_hit",
		outMiss:          "miss",
		outOK:            "ok",
		outCanceled:      "canceled",
		outRejected:      "rejected",
		outError:         "error",
		outOverloaded:    "overloaded",
		outUnserved:      "unserved",
		outUndeliverable: "undeliverable",
	}

	tierStages     = []stage{stEncode, stStoreWrite}
	routerStages   = []stage{stSplit, stReroute, stReplicate, stAntiEntropy} // dispatch's histograms are per node
	serveOutcomes  = []outcome{outHit, outDiskHit, outMiss, outCanceled}
	batchOutcomes  = []outcome{outOK, outCanceled, outRejected, outError}
	routerOutcomes = []outcome{outOK, outCanceled, outError, outOverloaded, outUnserved, outUndeliverable}
)

// traceRingSize is how many recent batch traces a tier keeps for /v1/traces.
const traceRingSize = 256

// panel holds pre-registered histograms, so workers never touch the registry
// lock: one per served arch, and the tier's own (tier and router series).
type panel struct {
	stage        [numStages]*obs.Histogram
	serve, batch [numOutcomes]*obs.Histogram
}

// telemetry is one tier's instrument panel: the histogram registry, the
// recent-trace ring, and the slow-batch log hook. Every tier has one.
type telemetry struct {
	m      *obs.Metrics
	traces *obs.TraceRing
	slow   time.Duration
	logf   func(format string, args ...any)

	panel // the tier's own series
	arch  map[isa.Arch]*panel
}

// newTelemetry builds the panel for a leaf server (archs non-empty) or a
// router (archs nil — the router registers its per-node dispatch histograms
// itself).
func newTelemetry(slow time.Duration, archs []isa.Arch) *telemetry {
	t := &telemetry{
		m:      obs.NewMetrics(),
		traces: obs.NewTraceRing(traceRingSize),
		slow:   slow,
		logf:   log.Printf,
		arch:   make(map[isa.Arch]*panel, len(archs)),
	}
	for _, s := range tierStages {
		t.stage[s] = t.m.Histogram(metricStage, obs.Labels("stage", stageNames[s]))
	}
	if archs == nil {
		for _, s := range routerStages {
			t.stage[s] = t.m.Histogram(metricStage, obs.Labels("stage", stageNames[s]))
		}
		for _, o := range routerOutcomes {
			t.batch[o] = t.m.Histogram(metricRtBatch, obs.Labels("outcome", outcomeNames[o]))
		}
	}
	for _, a := range archs {
		p, as := new(panel), string(a)
		for s := range numNodeStages {
			p.stage[s] = t.m.Histogram(metricStage, obs.Labels("stage", stageNames[s], "arch", as))
		}
		for _, o := range serveOutcomes {
			p.serve[o] = t.m.Histogram(metricServe, obs.Labels("arch", as, "outcome", outcomeNames[o]))
		}
		for _, o := range batchOutcomes {
			p.batch[o] = t.m.Histogram(metricBatch, obs.Labels("arch", as, "outcome", outcomeNames[o]))
		}
		t.arch[a] = p
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

// timed records one timed step of the batch: its histogram h and its span.
func (b *batch) timed(s stage, h *obs.Histogram, start time.Time, d time.Duration, n int, note string) {
	h.Observe(d)
	b.tr.Span(stageNames[s], start, d, n, note)
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
// only once per tenant (when admission creates the tenant's row), so workers
// still never touch the registry lock.
func (t *telemetry) tenantServe(tenant string) *obs.Histogram {
	return t.m.Histogram(metricTenant, obs.Labels("tenant", tenant))
}

// candTimings collects one candidate's cold-path stage durations as it moves
// through resultCache.do and shard.exec. A RAM hit adds none: its whole cost
// is the serve total the caller measures around the do() call.
type candTimings struct {
	d    [numNodeStages]time.Duration
	seen uint8 // bit s: stage s happened, however short
}

func (tm *candTimings) add(s stage, d time.Duration) { tm.d[s] += d; tm.seen |= 1 << s }

// stageAgg accumulates one stage's events across a batch's workers so the
// trace records one aggregated span per stage instead of one per candidate —
// a 10k-candidate batch would blow the per-trace span cap in its first
// worker otherwise. The histograms still see every individual event.
type stageAgg struct {
	n   atomic.Int64
	sum atomic.Int64
}

func (a *stageAgg) add(d time.Duration) { a.n.Add(1); a.sum.Add(int64(d)) }

// batchAgg is a batch's per-stage aggregation, filled concurrently by the
// workers and emitted as at most one span per stage when the batch seals.
type batchAgg [numNodeStages]stageAgg

func (g *batchAgg) emit(tr *obs.ActiveTrace, start time.Time) {
	for s := range g {
		if n := g[s].n.Load(); n > 0 {
			tr.Span(stageNames[s], start, time.Duration(g[s].sum.Load()), int(n), "")
		}
	}
}

// record folds one served candidate into the arch's histograms and the
// batch's aggregated spans. total is the full do() duration — on a RAM hit
// that is the entire serve cost (the cache_lookup stage), which is why the
// hit path's telemetry bill is two clock reads plus the Observe calls below.
func (p *panel) record(agg *batchAgg, tm *candTimings, total time.Duration, hit bool, err error) {
	o := outMiss
	switch {
	case err != nil:
		o = outCanceled
	case tm.seen&(1<<stDiskHit) != 0:
		o = outDiskHit
	case hit:
		o = outHit
		tm.add(stCacheLookup, total)
	}
	p.serve[o].Observe(total)
	for s := range numNodeStages {
		if tm.seen&(1<<s) != 0 {
			p.stage[s].Observe(tm.d[s])
			agg[s].add(tm.d[s])
		}
	}
}
