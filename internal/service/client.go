package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/runner"
)

// DefaultRequestTimeout bounds one batch request end to end when the caller
// does not supply its own HTTPClient or context deadline. It is generous —
// a cold paper-scale batch legitimately simulates for minutes — but finite,
// so a wedged server or a network partition after connect fails the tune
// instead of hanging it forever.
const DefaultRequestTimeout = 10 * time.Minute

// Client is the HTTP Backend: it talks to a remote `simtune serve` instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://tuner-farm:8070".
	BaseURL string
	// HTTPClient overrides the default client (DefaultRequestTimeout);
	// set it to tighten or lift the per-request timeout.
	HTTPClient *http.Client
}

// NewClient builds a client for a server base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// defaultHTTPClient is shared so connections are pooled across Clients.
var defaultHTTPClient = &http.Client{Timeout: DefaultRequestTimeout}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// Simulate implements Backend over POST /v1/simulate.
func (c *Client) Simulate(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	var resp SimulateResponse
	if err := c.post(ctx, "/v1/simulate", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(req.Candidates) {
		return nil, fmt.Errorf("service: server returned %d results for %d candidates",
			len(resp.Results), len(req.Candidates))
	}
	return &resp, nil
}

// Statusz implements Backend over GET /v1/statusz.
func (c *Client) Statusz(ctx context.Context) (*Statusz, error) {
	var st Statusz
	if err := c.get(ctx, "/v1/statusz", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Keys implements HandoffBackend over GET /v1/keys. The full inventory is
// lo=0, hi=^uint64(0); any other pair is sent as ?range=lo-hi (wrapping
// when lo > hi, matching ring arcs).
func (c *Client) Keys(ctx context.Context, lo, hi uint64) ([]Key, error) {
	path := "/v1/keys"
	if !(lo == 0 && hi == ^uint64(0)) {
		path += fmt.Sprintf("?range=%016x-%016x", lo, hi)
	}
	var resp KeysResponse
	if err := c.get(ctx, path, &resp); err != nil {
		return nil, err
	}
	return resp.Keys, nil
}

// Fetch implements HandoffBackend over POST /v1/fetch.
func (c *Client) Fetch(ctx context.Context, keys []Key) ([]Entry, error) {
	var resp FetchResponse
	if err := c.post(ctx, "/v1/fetch", &FetchRequest{Keys: keys}, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Ingest implements HandoffBackend over POST /v1/ingest.
func (c *Client) Ingest(ctx context.Context, entries []Entry) (int, error) {
	var resp IngestResponse
	if err := c.post(ctx, "/v1/ingest", &IngestRequest{Entries: entries}, &resp); err != nil {
		return 0, err
	}
	return resp.Ingested, nil
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return c.roundTrip(httpReq, out)
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	// A simulate request whose strings need no escaping is appended into a
	// pooled buffer — the bytes json.Marshal would have produced.
	var enc []byte
	var pooled *[]byte
	if req, ok := body.(*SimulateRequest); ok && req != nil {
		bp := wireBufs.Get().(*[]byte)
		if *bp, ok = appendSimulateRequest((*bp)[:0], req); ok {
			enc, pooled = *bp, bp
		} else {
			putWireBuf(bp)
		}
	}
	if enc == nil {
		var err error
		if enc, err = json.Marshal(body); err != nil {
			return fmt.Errorf("service: encode request: %w", err)
		}
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(enc))
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	// The batch's trace identity crosses the wire as a header; the server
	// (or router, which forwards the same ctx to its nodes) records its
	// spans under it, so one ID joins the timeline at every tier — retries
	// and reroutes included, since they reuse this ctx.
	if id := obs.TraceID(ctx); id != "" {
		httpReq.Header.Set(obs.TraceHeader, id)
	}
	// The tenant identity travels the same way: every tier admits and
	// accounts the batch under the context's tenant, falling back to the
	// default tenant when untagged.
	if tnt := TenantFrom(ctx); tnt != "" {
		httpReq.Header.Set(TenantHeader, tnt)
	}
	err = c.roundTrip(httpReq, out)
	// The transport can still be sending the body when Do returns, if the
	// peer answered (or the caller gave up) before reading all of it. A node
	// answers 200 only after it has read the whole body, so only then may
	// another request write over these bytes; otherwise the buffer is left
	// to the collector.
	if err == nil && pooled != nil {
		putWireBuf(pooled)
	}
	return err
}

// MetricsSnapshot implements MetricsBackend over GET /v1/metricsz — the
// mergeable-snapshot surface a router polls to fold this node's histograms
// into the fleet view.
func (c *Client) MetricsSnapshot(ctx context.Context) (*obs.MetricsSnapshot, error) {
	var snap obs.MetricsSnapshot
	if err := c.get(ctx, "/v1/metricsz", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func (c *Client) roundTrip(req *http.Request, out any) error {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("service: %s %s: %w", req.Method, req.URL.Path, err)
	}
	// Drain whatever the handlers below leave unread before closing: a
	// partially-read body makes net/http tear the pooled connection down
	// instead of reusing it, which under a router's fan-out turns every
	// error (and every decode hiccup) into connection churn. The limit
	// bounds how much we are willing to read just to save a dial.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorDrainBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		se := &Error{Status: resp.StatusCode, Msg: resp.Status}
		var wire struct {
			Error        string `json:"error"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		}
		if json.Unmarshal(msg, &wire) == nil && wire.Error != "" {
			se.Msg = resp.Status + ": " + wire.Error
			if wire.RetryAfterMS > 0 {
				se.RetryAfter = time.Duration(wire.RetryAfterMS) * time.Millisecond
			}
		}
		// The body field carries sub-second precision; the standard header
		// (whole seconds) is the fallback for proxies that strip bodies.
		if se.RetryAfter == 0 {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				se.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		// Wrap the typed error so callers (the router's failover logic
		// foremost) can recover the 4xx/5xx classification via errors.As.
		return fmt.Errorf("service: %s %s: %w", req.Method, req.URL.Path, se)
	}
	// The same discipline as the server's decodeBody: the whole body into a
	// pooled buffer, then decodeWire.
	bp := wireBufs.Get().(*[]byte)
	defer putWireBuf(bp)
	if *bp, err = readBody((*bp)[:0], resp.Body, resp.ContentLength); err == nil {
		err = decodeWire(*bp, out)
	}
	if err != nil {
		return fmt.Errorf("service: decode response: %w", err)
	}
	return nil
}

// maxErrorDrainBytes bounds the body tail drained for connection reuse; past
// that, redialing is cheaper than reading.
const maxErrorDrainBytes = 1 << 20

// ServiceRunner is the client-side runner.Runner over a simulate Backend:
// the drop-in replacement for runner.SimulatorRunner that lets
// core.ExecutionPhase and simtune.TuneGroup tune against a shared remote
// server (or an in-process Local() one) instead of private simulator
// instances. Pair it with NopBuilder — candidates are compiled server-side
// from their step logs, so client-side lowering would be wasted work.
type ServiceRunner struct {
	// Backend executes the batches (NewClient(...) or Local()).
	Backend Backend
	// Arch is the simulated target.
	Arch isa.Arch
	// Workload identifies the kernel instance being tuned.
	Workload WorkloadSpec
	// NPar is advertised as NParallel (informational; actual concurrency
	// lives server-side in the arch shard).
	NPar int
	// Scorer converts statistics to scores; nil leaves Score = 0.
	Scorer runner.Scorer
	// Ctx, when set, bounds every batch (client-side deadline/cancel);
	// nil means context.Background().
	Ctx context.Context
	// Tenant, when set, tags every batch with this tenant identity
	// (X-Simtune-Tenant on the wire): the service admits it under the
	// tenant's fair share of the admission gate and accounts it in the
	// tenant's statusz/metrics ledgers. Empty means the default tenant.
	Tenant string
	// Retries bounds re-submissions of a batch that failed with a
	// retryable error (server restart, canceled batch, overloaded fleet,
	// router with every node briefly down). Retrying matters because the
	// runner interface has no batch-level error channel: an unretried
	// transient failure becomes per-candidate +Inf scores and the tuner
	// permanently discards candidates that were never actually measured.
	// Default 2; negative disables.
	Retries int
	// RetryBackoff is the base re-submission delay (default 250ms). Each
	// attempt doubles the window, capped at RetryBackoffMax, and the actual
	// sleep is drawn uniformly from it (full jitter) so a population of
	// clients rejected together does not retry together. A server-supplied
	// Retry-After (429) floors the delay.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential growth (default 8s).
	RetryBackoffMax time.Duration

	// sleep replaces the inter-attempt wait when set — the test seam for
	// asserting pacing without real wall-clock sleeps.
	sleep func(context.Context, time.Duration) error

	hits, misses atomic.Uint64

	// Client-side telemetry: attempt/retry/backoff pressure and the
	// latency of every Simulate attempt (failed ones included). Recorded
	// unconditionally — one histogram Observe per HTTP round trip is noise
	// next to the round trip itself.
	attempts    atomic.Uint64
	retried     atomic.Uint64
	backoffNS   atomic.Int64
	attemptHist obs.Histogram
}

// ClientTelemetry is a ServiceRunner's client-side view of its service
// traffic: how many Simulate attempts it made, how many were retries of a
// failed batch, how long it spent backing off, and the attempt latency as a
// mergeable histogram snapshot (quantiles via Snapshot.Quantile).
type ClientTelemetry struct {
	// Attempts counts every Simulate call; Retries counts the re-submissions
	// among them (Attempts - Retries = batches on their first try).
	Attempts uint64 `json:"attempts"`
	Retries  uint64 `json:"retries"`
	// BackoffTotal is the cumulative time spent sleeping between attempts.
	BackoffTotal time.Duration `json:"backoff_total_ns"`
	// AttemptLatency is the per-attempt round-trip latency histogram.
	AttemptLatency obs.Snapshot `json:"attempt_latency"`
}

// Telemetry snapshots the runner's client-side telemetry.
func (r *ServiceRunner) Telemetry() ClientTelemetry {
	return ClientTelemetry{
		Attempts:       r.attempts.Load(),
		Retries:        r.retried.Load(),
		BackoffTotal:   time.Duration(r.backoffNS.Load()),
		AttemptLatency: r.attemptHist.Snapshot(),
	}
}

// Name implements runner.Runner.
func (r *ServiceRunner) Name() string { return "service[" + string(r.Arch) + "]" }

// NParallel implements runner.Runner.
func (r *ServiceRunner) NParallel() int {
	if r.NPar < 1 {
		return 1
	}
	return r.NPar
}

// SetScorer implements runner.ScorerSetter.
func (r *ServiceRunner) SetScorer(s runner.Scorer) { r.Scorer = s }

// CacheHits and CacheMisses report how many of this runner's candidates the
// service served from its result cache — the client-side view of the Eq. (4)
// bookkeeping (the server's statusz aggregates across all clients).
func (r *ServiceRunner) CacheHits() uint64   { return r.hits.Load() }
func (r *ServiceRunner) CacheMisses() uint64 { return r.misses.Load() }

// Run implements runner.Runner: the batch travels as one SimulateRequest
// (steps only — programs never cross the wire), results map back
// index-aligned, then scoring runs sequentially in input order exactly like
// the in-process SimulatorRunner so windowed normalizers stay deterministic
// across backends.
func (r *ServiceRunner) Run(inputs []runner.MeasureInput, builds []runner.BuildResult) []runner.MeasureResult {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Mint the batch's trace identity here, at the outermost client tier —
	// every retry and every reroute hop downstream reuses it, which is what
	// makes one tuner batch one joinable timeline across the fleet.
	ctx, _ = obs.EnsureTrace(ctx)
	if r.Tenant != "" {
		ctx = WithTenant(ctx, r.Tenant)
	}
	out := make([]runner.MeasureResult, len(inputs))
	req := &SimulateRequest{
		Arch:       string(r.Arch),
		Workload:   r.Workload,
		Candidates: make([]Candidate, 0, len(inputs)),
	}
	// Client-side build failures (only possible with a real Builder in
	// front; NopBuilder never fails) are reported locally and skipped.
	sent := make([]int, 0, len(inputs))
	for i := range inputs {
		if i < len(builds) && builds[i].Err != nil {
			out[i] = runner.MeasureResult{Err: builds[i].Err, Score: math.Inf(1)}
			continue
		}
		req.Candidates = append(req.Candidates, Candidate{Steps: inputs[i].Steps})
		sent = append(sent, i)
	}
	if len(sent) > 0 {
		resp, err := r.simulateWithRetry(ctx, req)
		if err != nil {
			for _, i := range sent {
				out[i] = runner.MeasureResult{Err: err, Score: math.Inf(1)}
			}
		} else {
			for j, i := range sent {
				res := resp.Results[j]
				if res.Err != "" {
					out[i] = runner.MeasureResult{Err: errors.New(res.Err), Score: math.Inf(1)}
					continue
				}
				if res.Stats == nil {
					out[i] = runner.MeasureResult{
						Err: errors.New("service: result has neither stats nor error"), Score: math.Inf(1)}
					continue
				}
				if res.CacheHit {
					r.hits.Add(1)
				} else {
					r.misses.Add(1)
				}
				out[i] = runner.MeasureResult{Stats: res.Stats, CacheHit: res.CacheHit}
			}
		}
	}
	if r.Scorer != nil {
		for i := range out {
			if out[i].Err == nil && out[i].Stats != nil {
				out[i].Score = r.Scorer.Score(out[i].Stats)
			}
		}
	}
	return out
}

// simulateWithRetry re-submits a batch whose error is retryable (and whose
// context is still alive): the batch is idempotent — results are
// content-addressed and cancellation is never cached — so re-submission can
// only re-simulate work, never corrupt it.
func (r *ServiceRunner) simulateWithRetry(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	retries := r.Retries
	if retries == 0 {
		retries = 2
	}
	base := r.RetryBackoff
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	cap := r.RetryBackoffMax
	if cap <= 0 {
		cap = 8 * time.Second
	}
	if cap < base {
		cap = base
	}
	for attempt := 0; ; attempt++ {
		r.attempts.Add(1)
		if attempt > 0 {
			r.retried.Add(1)
		}
		a0 := time.Now()
		resp, err := r.Backend.Simulate(ctx, req)
		r.attemptHist.Observe(time.Since(a0))
		if err == nil || attempt >= retries || !IsRetryable(err) || ctx.Err() != nil {
			return resp, err
		}
		d := retryDelay(base, cap, attempt, retryAfterOf(err))
		r.backoffNS.Add(int64(d))
		if serr := r.pause(ctx, d); serr != nil {
			return nil, serr
		}
	}
}

// retryDelay is capped exponential backoff with full jitter: the window
// doubles per attempt up to cap and the sleep is drawn uniformly from
// (0, window] — rejected clients de-synchronize instead of stampeding back
// in lockstep. A server-supplied Retry-After floors the result; the server
// knows its own drain rate better than the client's schedule does.
func retryDelay(base, cap time.Duration, attempt int, floor time.Duration) time.Duration {
	window := cap
	if attempt < 32 {
		if w := base << uint(attempt); w > 0 && w < cap {
			window = w
		}
	}
	d := time.Duration(rand.Int63n(int64(window))) + 1
	if d < floor {
		d = floor
	}
	return d
}

// retryAfterOf extracts the server's pacing hint, if the error carries one.
func retryAfterOf(err error) time.Duration {
	var se *Error
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// pause waits d or until ctx dies, through the test seam when installed.
func (r *ServiceRunner) pause(ctx context.Context, d time.Duration) error {
	if r.sleep != nil {
		return r.sleep(ctx, d)
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// NopBuilder implements runner.Builder by declining to compile: the
// simulate service lowers candidates server-side from their step logs, so
// the client ships no programs. Build results carry neither program nor
// error; only ServiceRunner (which ignores Prog) understands them.
type NopBuilder struct{}

// Build implements runner.Builder.
func (NopBuilder) Build(inputs []runner.MeasureInput) []runner.BuildResult {
	return make([]runner.BuildResult, len(inputs))
}
