package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/runner"
)

// maxRequestBytes bounds a simulate request body (a 10k-candidate batch of
// long step logs stays well under 1 MB; 64 MB leaves headroom without
// letting one client exhaust server memory).
const maxRequestBytes = 64 << 20

// Server is the batch simulation service: per-arch worker shards behind one
// content-addressed result cache (optionally disk-backed, Config.CacheDir).
// It implements Backend directly, which is the Local() in-process mode;
// Handler exposes the same operations over HTTP.
type Server struct {
	cfg    Config
	shards map[isa.Arch]*shard
	cache  *resultCache
	disk   *Store // nil without CacheDir; also reachable as cache.disk
	start  time.Time
	// admit is the admission gate and the tenant table behind it: one row
	// per tenant identity, holding the candidate ledgers; the node's
	// candidate, rejected, hit, miss and canceled totals are their sums
	// (ledgers).
	admit admission
	tel   *telemetry

	requests atomic.Uint64

	// drainMu orders the draining flag against inflight.Add: Shutdown flips
	// the flag under the write lock, so once it holds the lock no new batch
	// can join the WaitGroup it is about to Wait on.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// NewServer builds a server from the configuration. With Config.CacheDir
// set it opens (or recovers) the durable result store first — scanning the
// segment log rebuilds the key index, so a restarted server serves its
// previously computed corpus as cache hits; the only error paths are
// store-related (unwritable directory, unopenable segments).
func NewServer(cfg Config) (*Server, error) {
	if cfg.MaxResidentResults < 0 {
		return nil, fmt.Errorf("service: MaxResidentResults must be >= 0, got %d", cfg.MaxResidentResults)
	}
	cfg.defaults()
	tel := newTelemetry(cfg.SlowBatchThreshold, cfg.Archs)
	var disk *Store
	if cfg.CacheDir != "" {
		var err error
		disk, err = OpenStore(cfg.CacheDir, StoreOptions{
			WrapFile: cfg.StoreWrapFile, WriteHist: tel.stage[stStoreWrite],
		})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:    cfg,
		shards: make(map[isa.Arch]*shard, len(cfg.Archs)),
		cache:  newResultCache(cfg.MaxResidentResults, disk),
		disk:   disk,
		start:  time.Now(),
		tel:    tel,
	}
	s.admit.init(int64(cfg.MaxQueuedCandidates), cfg.TenantWeights, tel)
	for _, arch := range cfg.Archs {
		s.shards[arch] = newShard(hw.Lookup(arch), cfg.WorkersPerArch)
	}
	return s, nil
}

// Local returns an in-process server with default configuration — the
// no-sockets Backend used by tests, examples and single-machine tuning.
// In-process callers share cached Result values; treat Stats as read-only.
func Local() *Server {
	s, err := NewServer(Config{})
	if err != nil {
		// Unreachable: the default config has no CacheDir, and only the
		// store can fail construction.
		panic(err)
	}
	return s
}

// Close flushes and closes the durable store (a no-op without CacheDir).
// Call it on shutdown so the write-behind queue reaches disk; results
// appended after the last Flush/Close would otherwise be lost to a crash —
// which is safe (they re-simulate) but wasteful. Close is idempotent — the
// drain path (Shutdown), signal handlers and deferred cleanups may all call
// it — and every call returns the first flush/close error rather than
// swallowing it behind a later no-op.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.disk != nil {
			s.closeErr = s.disk.Close()
		}
	})
	return s.closeErr
}

// Shutdown drains the server the way SIGTERM should: it stops admitting new
// batches (they fail with a retryable 503 carrying "draining", and statusz
// reports Draining so a router treats the node as a planned down→up cycle),
// waits for every in-flight batch to finish — their results land in the
// cache and the write-behind store as usual — and then flushes and closes
// the durable store. If ctx expires first, the store is still flushed with
// whatever completed, the stragglers keep running under their own contexts
// (the caller may cancel those; a post-close store write is a safe no-op)
// and ctx's error is returned. Shutdown is idempotent and safe to race with
// Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}
	if err := s.Close(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// Draining reports whether Shutdown has started.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Simulate implements Backend: every candidate is served from the result
// cache when possible and otherwise compiled and simulated on the arch's
// shard, at most WorkersPerArch concurrently per batch. Duplicate candidates
// — within the batch or racing with other clients — are simulated once and
// shared through the singleflight layer. Cancelling ctx (server shutdown,
// client disconnect) stops dispatching, lets in-flight simulations finish
// into the cache, and fails the batch as a whole with a retryable error.
//
// Cancellation is never folded into a per-candidate Result.Err: Result.Err
// is reserved for deterministic candidate failures, which clients score as
// +Inf and tuners permanently discard. A canceled batch says nothing about
// any candidate's viability, so it must surface as a batch-level error the
// caller can retry.
func (s *Server) Simulate(ctx context.Context, req *SimulateRequest) (_ *SimulateResponse, err error) {
	// Drain gate first: once Shutdown has started, no new batch may join
	// the in-flight set. The 503 is retryable — a router fails the batch
	// over to ring successors, exactly like a node that is already gone.
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		return nil, fmt.Errorf("service: %w", unavailablef("draining: shutting down"))
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	defer s.inflight.Done()

	// Every way out of here seals the batch's telemetry, under the outcome
	// series in force at that point (none until the arch is known).
	ctx, b := s.tel.begin(ctx, "node", req)
	var outcome *obs.Histogram
	defer func() { b.finish(outcome, err) }()

	arch, err := isa.ParseArch(req.Arch)
	if err != nil {
		return nil, fmt.Errorf("service: %w", badRequestf("%v", err))
	}
	sh, ok := s.shards[arch]
	if !ok {
		// The arch exists but this node was not configured to serve it: a
		// deployment fact, not a request defect and not a node fault — a
		// router tries a differently-configured replica without taking this
		// node out of rotation.
		return nil, fmt.Errorf("service: %w",
			unservedf("arch %s not served (configured: %v)", arch, s.cfg.Archs))
	}
	at := s.tel.arch[arch]
	outcome = at.batch[outError]
	factory, err := req.Workload.Factory()
	if err != nil {
		return nil, fmt.Errorf("service: %w", badRequestf("%v", err))
	}
	// Admission: the request is well-formed but the tenant's share of the
	// gate is full — refuse rather than queue without bound. The gate is
	// weighted-fair (see admission): an aggressor tenant is capped at its
	// share while a tenant under its share is never rejected. Rejected
	// candidates are never "accepted", so they are counted in their own
	// ledger and the hits+misses+canceled == candidates invariant is
	// untouched.
	tenant := tenantOf(ctx)
	tl := s.admit.tenant(tenant)
	adm0 := time.Now()
	if !s.admit.tryAcquire(tl, len(req.Candidates)) {
		tl.rejected.Add(uint64(len(req.Candidates)))
		outcome = at.batch[outRejected]
		return nil, fmt.Errorf("service: %w", overloadedf(s.cfg.RetryAfterHint,
			"overloaded: %d candidates admitted (max %d, tenant %s over fair share)",
			s.admit.cur.Load(), s.cfg.MaxQueuedCandidates, tenant))
	}
	b.timed(stAdmission, at.stage[stAdmission], adm0, time.Since(adm0), 1, "")
	defer s.admit.release(tl, len(req.Candidates))
	s.requests.Add(1)
	tl.candidates.Add(uint64(len(req.Candidates)))

	// Per-candidate timing state: one slice allocation per batch.
	tms := make([]candTimings, len(req.Candidates))
	results := make([]Result, len(req.Candidates))
	prefix := keyPrefix(make([]byte, 0, 128), arch, sh.prof.Caches, req.Workload)
	var mu sync.Mutex
	var cancelErr error // first cancellation seen by any worker
	var dispatched atomic.Uint64
	perr := runner.ParallelCtx(ctx, s.cfg.WorkersPerArch, len(req.Candidates), func(i int) {
		dispatched.Add(1)
		steps := req.Candidates[i].Steps
		key := candidateKey(prefix, steps)
		tm := &tms[i]
		c0 := time.Now()
		r, hit, err := s.cache.do(ctx, key, tm, func() (Result, error) {
			return sh.exec(ctx, factory, steps, tm)
		})
		total := time.Since(c0)
		at.record(&b.agg, tm, total, hit, err)
		tl.recordServe(total, hit, err)
		if err != nil {
			// Only cancellation reaches here (deterministic failures travel
			// inside Result.Err). If ctx died after ParallelCtx dispatched
			// everything, perr below stays nil — record the abort ourselves.
			mu.Lock()
			if cancelErr == nil {
				cancelErr = err
			}
			mu.Unlock()
			return
		}
		r.CacheHit = hit
		results[i] = r
	})
	if perr == nil {
		perr = cancelErr
	}
	if perr != nil {
		// Candidates ParallelCtx never dispatched were canceled before the
		// cache could see them; charge them to the tenant's canceled count
		// so hits+misses+canceled still reconciles with candidates accepted.
		tl.canceled.Add(uint64(len(req.Candidates)) - dispatched.Load())
		outcome = at.batch[outCanceled]
		return nil, fmt.Errorf("service: %w", unavailablef("batch canceled: %v", perr))
	}
	outcome = at.batch[outOK]
	return &SimulateResponse{Results: results}, nil
}

// Statusz implements Backend.
func (s *Server) Statusz(context.Context) (*Statusz, error) {
	st := s.ledgers()
	st.Stages = stageLatencies(s.tel.m.Snapshot())
	return st, nil
}

// ledgers reads every counter and gauge of the node into the statusz shape —
// the one place the atomics are read; the metrics scrape below is derived
// from the same value through the ledger declaration. The candidate,
// rejected, hit, miss and canceled totals are the sums of the tenant rows.
func (s *Server) ledgers() *Statusz {
	st := &Statusz{
		UptimeSec:      time.Since(s.start).Seconds(),
		Draining:       s.Draining(),
		Requests:       s.requests.Load(),
		CacheEntries:   s.cache.len(),
		CacheDiskHits:  s.cache.diskHits.Load(),
		CacheEvictions: s.cache.evictions.Load(),
		HandoffKeys:    s.cache.handoffKeys.Load(),
		Tenants:        s.admit.statuses(),
	}
	for _, t := range st.Tenants {
		st.Candidates += t.Candidates
		st.RejectedCandidates += t.RejectedCandidates
		st.CacheHits += t.CacheHits
		st.CacheMisses += t.CacheMisses
		st.CacheCanceled += t.CacheCanceled
	}
	st.CacheResident = st.CacheEntries
	if s.disk != nil {
		st.CacheDiskEntries = s.disk.Len()
		st.StoreLiveBytes, st.StoreTotalBytes = s.disk.Bytes()
	}
	for _, arch := range s.cfg.Archs {
		st.Shards = append(st.Shards, s.shards[arch].status())
	}
	return st
}

// MetricsSnapshot implements MetricsBackend: every telemetry histogram plus
// the server's counters and gauges as one mergeable snapshot — the
// /v1/metricsz body a router folds into its fleet view. The counters mirror
// statusz (they are the same atomics); the histograms exist only here and
// on /v1/metrics. The tenant serve-latency histograms are already in Hists
// via the registry snapshot; series with the same (name, labels) merge
// bucket-wise across nodes like every other histogram, so fleet-level
// per-tenant quantiles stay exact.
func (s *Server) MetricsSnapshot(context.Context) (*obs.MetricsSnapshot, error) {
	snap := &obs.MetricsSnapshot{Hists: s.tel.m.Snapshot()}
	st := s.ledgers()
	nodeSeries := func(l ledger) string {
		if l.disk && s.disk == nil {
			return ""
		}
		return l.series
	}
	exportLedgers(snap, statuszLedgers, st, "", nodeSeries)
	snap.Gauges = append(snap.Gauges, obs.ScalarMetric{
		Name: "simtune_admitted_candidates", Value: float64(s.admit.cur.Load())})
	for i := range st.Shards {
		exportLedgers(snap, shardLedgers, &st.Shards[i], obs.Labels("arch", st.Shards[i].Arch), nodeSeries)
	}
	for i := range st.Tenants {
		exportLedgers(snap, tenantLedgers, &st.Tenants[i], obs.Labels("tenant", st.Tenants[i].Tenant), nodeSeries)
	}
	snap.Gauges = append(snap.Gauges, obs.RuntimeGauges()...)
	return snap, nil
}

// Keys implements HandoffBackend over the result cache (RAM plus durable
// layer).
func (s *Server) Keys(_ context.Context, lo, hi uint64) ([]Key, error) {
	return s.cache.keysInRange(lo, hi), nil
}

// Fetch implements HandoffBackend.
func (s *Server) Fetch(_ context.Context, keys []Key) ([]Entry, error) {
	return s.cache.fetch(keys), nil
}

// Ingest implements HandoffBackend.
func (s *Server) Ingest(_ context.Context, entries []Entry) (int, error) {
	return s.cache.ingest(entries), nil
}

// Handler returns the HTTP surface of the server:
//
//	POST /v1/simulate — SimulateRequest in, SimulateResponse out
//	GET  /v1/statusz  — Statusz out
//	GET  /v1/metrics  — Prometheus text exposition
//	GET  /v1/metricsz — mergeable obs.MetricsSnapshot (JSON)
//	GET  /v1/traces   — recent batch traces
//
// Requests run under the HTTP request context, so a disconnecting client
// aborts its own batch's undispatched work.
func (s *Server) Handler() http.Handler { return backendHandler(s, s.tel, s.cfg.EnablePprof) }

// backendHandler exposes any Backend over the wire protocol — the one
// handler serves both a leaf *Server and a *Router, which is what keeps the
// protocol identical at every tier. Error responses carry the Error
// classification as their status: 4xx for request defects, 5xx for server
// faults and cancellation, so routers and dashboards can tell "this batch
// can never succeed" from "retry elsewhere".
//
// tel supplies the trace ring behind /v1/traces and the encode-stage
// histogram; enablePprof mounts net/http/pprof under /debug/pprof/.
func backendHandler(b Backend, tel *telemetry, enablePprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		var req SimulateRequest
		if !readRequest(w, r, http.MethodPost, &req) {
			return
		}
		// The trace ID travels as a header across the wire and as a context
		// value inside the process; echoing it on the response lets callers
		// join their batch to this tier's /v1/traces without re-parsing logs.
		ctx := r.Context()
		if id := r.Header.Get(obs.TraceHeader); id != "" {
			ctx = obs.WithTrace(ctx, id)
			w.Header().Set(obs.TraceHeader, id)
		}
		// The tenant identity travels the same way as the trace ID: header
		// on the wire, context value in the process. A router forwards the
		// same context to its node clients, so the identity survives the
		// fan-out; absent or invalid identities resolve to DefaultTenant at
		// admission time.
		if tnt := r.Header.Get(TenantHeader); tnt != "" {
			ctx = WithTenant(ctx, tnt)
		}
		resp, err := b.Simulate(ctx, &req)
		if err != nil {
			writeError(w, err)
			return
		}
		e0 := time.Now()
		writeJSON(w, resp)
		ed := time.Since(e0)
		tel.stage[stEncode].Observe(ed)
		// The batch trace sealed inside Simulate; attach the encode span
		// after the fact. Only wire-identified batches can be amended — a
		// server-minted ID never escapes Simulate's context.
		if id := obs.TraceID(ctx); id != "" {
			tel.traces.Amend(id, obs.Span{
				Stage: stageNames[stEncode], StartNS: e0.UnixNano(), DurNS: int64(ed), N: 1,
			})
		}
	})
	handleGet(mux, "/v1/statusz", func(r *http.Request) (*Statusz, error) { return b.Statusz(r.Context()) })
	// The telemetry snapshot is exposed twice: rendered for a Prometheus
	// scraper (/v1/metrics) and as the raw mergeable JSON a router folds into
	// its fleet view (/v1/metricsz).
	if mb, ok := b.(MetricsBackend); ok {
		mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
			if !readRequest(w, r, http.MethodGet, nil) {
				return
			}
			snap, err := mb.MetricsSnapshot(r.Context())
			if err != nil {
				writeError(w, err)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			snap.WritePrometheus(w)
		})
		handleGet(mux, "/v1/metricsz", func(r *http.Request) (*obs.MetricsSnapshot, error) {
			return mb.MetricsSnapshot(r.Context())
		})
	}
	handleGet(mux, "/v1/traces", func(*http.Request) (*TracesResponse, error) {
		traces, total := tel.traces.Snapshot()
		return &TracesResponse{Total: total, Traces: traces}, nil
	})
	// The replication triple. Only backends that implement HandoffBackend
	// (leaf servers) get these routes; on a router the paths 404 like any
	// other unknown path.
	if hb, ok := b.(HandoffBackend); ok {
		handleGet(mux, "/v1/keys", func(r *http.Request) (*KeysResponse, error) {
			lo, hi := uint64(0), ^uint64(0)
			if rng := r.URL.Query().Get("range"); rng != "" {
				var err error
				if lo, hi, err = parseKeyRange(rng); err != nil {
					return nil, badRequestf("%v", err)
				}
			}
			keys, err := hb.Keys(r.Context(), lo, hi)
			return &KeysResponse{Keys: keys}, err
		})
		handlePost(mux, "/v1/fetch", func(ctx context.Context, req *FetchRequest) (*FetchResponse, error) {
			entries, err := hb.Fetch(ctx, req.Keys)
			return &FetchResponse{Entries: entries}, err
		})
		handlePost(mux, "/v1/ingest", func(ctx context.Context, req *IngestRequest) (*IngestResponse, error) {
			n, err := hb.Ingest(ctx, req.Entries)
			return &IngestResponse{Ingested: n}, err
		})
	}
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// readRequest is the one place a request becomes a value: it checks the
// method and, given somewhere to put it, decodes the size-bounded JSON body.
// On failure it has already written the 405, 413 or 400 and reports false.
func readRequest(w http.ResponseWriter, r *http.Request, method string, into any) bool {
	if r.Method != method {
		httpError(w, http.StatusMethodNotAllowed, method+" only")
		return false
	}
	return into == nil || decodeBody(w, r, into, maxRequestBytes)
}

// decodeBody reads a body of at most limit bytes into a pooled buffer and
// decodes it (decodeWire). The buffer is needed because the cursor decoder
// wants the whole body; it grows with the bytes that arrive, not with the
// length the client declared (readBody). On failure the 413 or 400 is
// written.
func decodeBody(w http.ResponseWriter, r *http.Request, into any, limit int64) bool {
	if r.ContentLength > limit {
		httpError(w, http.StatusRequestEntityTooLarge, "decode request: http: request body too large")
		return false
	}
	bp := wireBufs.Get().(*[]byte)
	defer putWireBuf(bp)
	var err error
	*bp, err = readBody((*bp)[:0], http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err == nil {
		err = decodeWire(*bp, into)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "decode request: "+err.Error())
		return false
	}
	return true
}

// handleGet mounts a body-less JSON endpoint: method check, get, then the
// value or the error's classification on the wire.
func handleGet[Resp any](mux *http.ServeMux, path string, get func(*http.Request) (Resp, error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if readRequest(w, r, http.MethodGet, nil) {
			resp, err := get(r)
			respond(w, resp, err)
		}
	})
}

// handlePost mounts a JSON-in, JSON-out endpoint the same way.
func handlePost[Req, Resp any](mux *http.ServeMux, path string, do func(context.Context, *Req) (Resp, error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if readRequest(w, r, http.MethodPost, &req) {
			resp, err := do(r.Context(), &req)
			respond(w, resp, err)
		}
	})
}

// respond writes a handler's outcome: the value, or the error's status.
func respond(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, resp)
}

// parseKeyRange parses the "?range=lo-hi" query form: two 16-digit hex ring
// positions. lo > hi is valid and wraps through zero (a ring arc).
func parseKeyRange(s string) (lo, hi uint64, err error) {
	dash := strings.IndexByte(s, '-')
	if dash < 0 {
		return 0, 0, fmt.Errorf("range %q: want lo-hi (hex uint64 pair)", s)
	}
	if lo, err = strconv.ParseUint(s[:dash], 16, 64); err != nil {
		return 0, 0, fmt.Errorf("range %q: %v", s, err)
	}
	if hi, err = strconv.ParseUint(s[dash+1:], 16, 64); err != nil {
		return 0, 0, fmt.Errorf("range %q: %v", s, err)
	}
	return lo, hi, nil
}

// writeJSON writes v as json.Encoder does, newline included. A simulate
// response whose strings need no escaping takes the append encoder, which
// produces the same bytes without reflection.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if resp, ok := v.(*SimulateResponse); ok && resp != nil {
		bp := wireBufs.Get().(*[]byte)
		defer putWireBuf(bp)
		if *bp, ok = appendSimulateResponse((*bp)[:0], resp); ok {
			*bp = append(*bp, '\n')
			_, _ = w.Write(*bp)
			return
		}
	}
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeError renders a backend error with its Error classification as the
// HTTP status. An overload rejection additionally carries its pacing hint
// twice: the standard Retry-After header (whole seconds, ceiling — the header
// cannot express less) and a retry_after_ms body field preserving sub-second
// precision for our own client.
func writeError(w http.ResponseWriter, err error) {
	var se *Error
	if errors.As(err, &se) && se.RetryAfter > 0 {
		secs := int64((se.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(se.Status)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error":          err.Error(),
			"retry_after_ms": se.RetryAfter.Milliseconds(),
		})
		return
	}
	httpError(w, httpStatus(err), err.Error())
}

// ListenAndServe runs the HTTP server until ctx is cancelled, then drains:
// Server.Shutdown stops admitting (new batches 503 with "draining" and
// statusz reports Draining, so a router rotates the node out as a planned
// restart), in-flight batches finish and the store is flushed and closed —
// all bounded by Config.DrainTimeout. Only if the drain deadline passes are
// the stragglers hard-aborted through their request contexts.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return serveHTTP(ctx, addr, s.Handler(), s.drain)
}

func (s *Server) drain() error {
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(drainCtx)
}

// serveHTTP is the shared listen/shutdown loop behind Server.ListenAndServe
// and Router.ListenAndServe.
func serveHTTP(ctx context.Context, addr string, h http.Handler, drain func() error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveListener(ctx, ln, h, drain)
}

// serveListener serves h on ln until ctx is cancelled, then stops. Request
// contexts derive from an internal base context that outlives ctx:
// cancelling ctx triggers drain (when the backend has one) with in-flight
// batches still running; the base is cancelled only after drain returns,
// hard-aborting whatever the drain deadline left behind.
func serveListener(ctx context.Context, ln net.Listener, h http.Handler, drain func() error) error {
	baseCtx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	var unused unusedConns
	httpSrv := &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
		ConnState:   unused.track,
		// A peer that connects and then trickles (or never sends) its request
		// line may not hold a connection and its goroutine forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		var drainErr error
		if drain != nil {
			drainErr = drain()
		}
		hardStop()
		unused.closeAll() // or Shutdown below waits 5 s for each of them
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(shutdownCtx)
		if err != nil {
			httpSrv.Close() // the grace is spent: drop what is still open
		}
		if drainErr != nil {
			return drainErr
		}
		return err
	}
}

// unusedConns tracks connections that were accepted but have not carried a
// byte yet (http.StateNew) — a keep-alive client's speculative second dial is
// enough to leave one. http.Server.Shutdown counts such a connection as busy
// until it is 5 s old, so every graceful stop that meets one silently takes
// 5 s longer. Closing it instead loses nothing: no request was ever on it.
type unusedConns struct{ sync.Map }

func (u *unusedConns) track(c net.Conn, state http.ConnState) {
	if state == http.StateNew {
		u.Store(c, nil)
	} else {
		u.Delete(c)
	}
}

func (u *unusedConns) closeAll() {
	u.Range(func(c, _ any) bool {
		c.(net.Conn).Close()
		return true
	})
}
