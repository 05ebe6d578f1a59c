// Package service turns the in-process simulator library into
// simulation-as-a-service: a long-running batch server that accepts
// candidate schedules over an HTTP/JSON API, compiles them with
// runner.LocalBuilder, fans them out over sharded per-architecture worker
// pools built on the pooled sim.Acquire machines, and fronts everything with
// a content-addressed result cache — so identical candidates re-proposed
// across tuning runs and across clients cost a map lookup instead of a
// simulation.
//
// The paper's Contribution I replaces target boards with simulator
// instances behind TVM's builder/runner interface (§III-A, Listing 3);
// this package is the next scaling step of that idea: many concurrent
// tuning clients share one fleet of simulator workers and one result
// cache. Simulations are deterministic functions of
// (architecture, workload, schedule steps), which makes results perfectly
// content-addressable: the cache key is a sha256 over the architecture,
// its Table I cache geometry, the workload signature, and the canonical
// step encoding (schedule.Canonical).
//
// # Wire protocol
//
// Every tier — leaf server, consistent-hash router — speaks the same
// HTTP/JSON surface, which is what lets clients point at either without
// knowing the topology:
//
//	POST /v1/simulate  — batched candidates in, per-candidate stats out
//	GET  /v1/statusz   — queue, cache and worker metrics
//	GET  /v1/metrics   — Prometheus text exposition: per-stage latency
//	                     histograms, counters, gauges; a router serves the
//	                     exact bucket-merge across its reachable nodes
//	GET  /v1/metricsz  — the same telemetry as a mergeable JSON snapshot
//	                     (what routers merge; see obs.MetricsSnapshot)
//	GET  /v1/traces    — recent batch traces, newest first (bounded ring);
//	                     batches carry an X-Simtune-Trace ID end to end
//	GET  /v1/keys      — cache-key inventory (optionally ?range=lo-hi over
//	                     ring positions); leaf servers only
//	POST /v1/fetch     — bulk-read stored results by key; leaf servers only
//	POST /v1/ingest    — install replayed results (warm handoff); leaf only
//
// The keys/fetch/ingest triple is the replication side channel the router's
// warm handoff uses when a node rejoins the ring: the results a rejoining
// node owns are replayed into it from the ring successors that covered its
// range while it was down, so rejoin never re-simulates the corpus.
//
// # Durability
//
// With Config.CacheDir set, the result cache gains a disk-backed
// write-behind layer (an append-only segment log, see Store): a restarted
// node rebuilds its key index by scanning the segments and serves its
// previously computed corpus as cache hits — statusz splits those out as
// cache_disk_hits.
//
// # Error taxonomy
//
// Errors carry an HTTP-style classification end to end (see Error):
//
//	4xx — the request itself is defective (unknown arch, malformed
//	      workload); retrying anywhere fails identically.
//	501 — this node's operator config does not serve the arch; stable,
//	      so routers route around the healthy node without ejecting it.
//	5xx — this node could not do the work right now (canceled batch,
//	      fault); retryable, and routers fail the sub-batch over to ring
//	      successors.
//
// A batch canceled mid-flight always fails as a whole with a retryable
// error; cancellation is never folded into a per-candidate Result.Err,
// because clients score per-candidate errors as +Inf and tuners would
// permanently discard candidates that were never actually measured.
//
// Three ways to consume the service:
//
//   - Local(): an in-process *Server used directly as a Backend
//     (no sockets) — tests, examples, single-machine tuning.
//   - NewClient(baseURL): the HTTP client for a remote `simtune serve`.
//   - ServiceRunner: a runner.Runner adapter over either, so
//     core.ExecutionPhase and simtune.TuneGroup transparently tune
//     against the service instead of in-process simulators.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/te"
)

// Backend executes simulation batches. *Server implements it in-process;
// *Client implements it over HTTP; *Router implements it by sharding across
// many servers. ServiceRunner and all higher layers only see this interface,
// which is what makes the in-process, remote and multi-node backends
// interchangeable.
type Backend interface {
	// Simulate executes (or serves from cache) every candidate of the
	// request. A non-nil error means the batch as a whole failed
	// (transport, unknown arch/workload, cancellation) — use IsRetryable
	// to tell transient conditions from deterministic request errors.
	// Per-candidate *deterministic* failures (broken schedules) travel
	// inside Result.Err; cancellation never does.
	Simulate(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error)
	// Statusz reports server metrics.
	Statusz(ctx context.Context) (*Statusz, error)
}

// MetricsBackend is the optional telemetry surface of a Backend: a
// mergeable snapshot of its histograms, counters and gauges. *Server
// implements it natively, *Client forwards it over GET /v1/metricsz, and
// *Router implements it by merging the snapshots of every reachable node
// with its own routing-tier series — histogram buckets add element-wise, so
// the fleet p99 a router reports is the p99 of the combined sample, exact
// rather than an average of per-node quantiles.
type MetricsBackend interface {
	MetricsSnapshot(ctx context.Context) (*obs.MetricsSnapshot, error)
}

// HandoffBackend is the optional replication surface of a Backend: the
// key-inventory/fetch/ingest triple the router's warm handoff replays a
// rejoining node's corpus through. *Server implements it natively and
// *Client forwards it over /v1/keys, /v1/fetch and /v1/ingest; *Router
// deliberately does not — replication is a node-to-node concern, and
// exposing it at the routing tier would invite accidental fleet-wide
// scans.
//
// None of the three operations touch the hit/miss/canceled candidate
// accounting: they move cache contents, they do not serve candidates.
type HandoffBackend interface {
	// Keys lists the cache keys this node can serve whose ring position
	// (keyPos: the first 8 bytes of the sha256 key, big-endian) lies in
	// [lo, hi]; lo > hi wraps through zero, so one ring arc is one range.
	// Keys(ctx, 0, ^uint64(0)) lists everything.
	Keys(ctx context.Context, lo, hi uint64) ([]Key, error)
	// Fetch bulk-reads stored results; keys the node no longer holds are
	// silently dropped from the reply.
	Fetch(ctx context.Context, keys []Key) ([]Entry, error)
	// Ingest installs replayed results, skipping keys already present
	// (results are content-addressed — the values cannot differ), and
	// reports how many were new.
	Ingest(ctx context.Context, entries []Entry) (int, error)
}

// Error is a classified service failure. Status carries the HTTP taxonomy
// even for in-process backends: 4xx means the request itself is wrong
// (malformed arch/workload — retrying, here or on any other node, fails
// identically), 429 means the node's admission queue is full right now
// (retry after RetryAfter, ideally elsewhere), 5xx means this server could
// not do the work right now (canceled batch, unserved arch under the
// operator's -archs config, node fault) and a router may fail the batch
// over to a replica. writeError puts Status (and RetryAfter) on the wire
// and Client.roundTrip reconstructs them, so the classification survives
// the HTTP hop.
type Error struct {
	Status int
	Msg    string
	// RetryAfter, when non-zero, is the server's pacing hint for retrying
	// the identical request (429 overload rejections carry it). It travels
	// as a standard Retry-After header (whole seconds) plus a
	// retry_after_ms field in the JSON error body for sub-second hints.
	RetryAfter time.Duration
}

func (e *Error) Error() string { return e.Msg }

// ErrOverloaded is the admission-control rejection: the node's bounded
// admission queue (Config.MaxQueuedCandidates) is full and the batch was
// refused rather than queued without bound. Match with
// errors.Is(err, ErrOverloaded); the concrete *Error carries the
// Retry-After pacing hint. Overload is retryable — the identical batch
// succeeds once load drains, or immediately on a less-loaded replica, and
// a router tries ring successors before propagating the 429.
var ErrOverloaded = &Error{Status: 429, Msg: "overloaded"}

// Is lets errors.Is(err, ErrOverloaded) match any 429 Error regardless of
// its message or Retry-After hint.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t == ErrOverloaded && e.Status == 429
}

// Retryable reports whether the failure is transient: the identical request
// may succeed later or on another node. Client errors are deterministic and
// never retryable — except 429, which says "not now", not "not ever"; 501
// (arch not served here) is stable operator configuration, not a transient
// fault — retrying the same node is futile, and a router routes around it
// without treating the node as sick.
func (e *Error) Retryable() bool {
	return e.Status == 429 || (e.Status >= 500 && e.Status != 501)
}

func badRequestf(format string, args ...any) *Error {
	return &Error{Status: 400, Msg: fmt.Sprintf(format, args...)}
}

func unavailablef(format string, args ...any) *Error {
	return &Error{Status: 503, Msg: fmt.Sprintf(format, args...)}
}

func unservedf(format string, args ...any) *Error {
	return &Error{Status: 501, Msg: fmt.Sprintf(format, args...)}
}

func overloadedf(retryAfter time.Duration, format string, args ...any) *Error {
	return &Error{Status: 429, Msg: fmt.Sprintf(format, args...), RetryAfter: retryAfter}
}

// isOverloaded reports the 429 admission rejection — the class a router
// retries on ring successors (the node is hot, not sick) before propagating.
func isOverloaded(err error) bool { return errors.Is(err, ErrOverloaded) }

// isUnserved reports the 501 "arch not served on this node" condition — the
// one class a router must route around per-batch without ejecting the
// (healthy) node from rotation.
func isUnserved(err error) bool {
	var se *Error
	return errors.As(err, &se) && se.Status == 501
}

// IsRetryable classifies an arbitrary Backend error: context cancellation
// and transport failures are transient; a classified *Error answers for
// itself; anything unidentified is treated as a server fault (retryable) —
// the conservative choice for a router, which would rather re-route a batch
// than permanently poison candidates with +Inf scores.
func IsRetryable(err error) bool {
	var se *Error
	if errors.As(err, &se) {
		return se.Retryable()
	}
	return true
}

// httpStatus maps a Simulate/Statusz error to its wire status.
func httpStatus(err error) int {
	var se *Error
	if errors.As(err, &se) {
		return se.Status
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 503
	}
	return 500
}

// Config sizes a Server.
type Config struct {
	// Archs lists the served architectures (default: all three targets).
	// Each arch gets its own worker shard so a flood of RISC-V batches
	// cannot starve x86 clients.
	Archs []isa.Arch
	// WorkersPerArch is the simulator parallelism per shard (default 4 —
	// the paper's n_parallel default).
	WorkersPerArch int
	// MaxResidentResults bounds how many results the cache keeps resident
	// in RAM (the ARC bound; default 1<<18, negative is a configuration
	// error). The durable layer below it is unbounded — disk records are the
	// corpus the fleet paid simulations for, and a key evicted from RAM is
	// served from its segment record at disk-hit rate, never re-simulated.
	MaxResidentResults int
	// CacheDir, when non-empty, enables the durable result store: computed
	// results are written behind to an append-only segment log under this
	// directory, and a restarted server serves its previously computed keys
	// as cache hits after rebuilding the key index from the segments.
	CacheDir string
	// StoreWrapFile, when non-nil, wraps every segment file the durable
	// store opens — the fault-injection seam the chaos harness uses to
	// exercise short writes and fsync failures (see StoreFaults). Leave nil
	// in production.
	StoreWrapFile func(*os.File) StoreFile
	// MaxQueuedCandidates bounds the candidates a server will hold admitted
	// (queued or running) across all shards at once — the admission gate in
	// front of the worker pools. A batch that would push the total past the
	// bound is rejected with a typed 429 (ErrOverloaded) carrying a
	// Retry-After hint instead of queueing without bound; rejections are
	// counted in statusz as rejected_candidates, outside the
	// hits+misses+canceled == candidates invariant. Default 1<<16 —
	// generous: rejection should mean genuine overload, not a burst.
	// A batch larger than the bound is still admitted when the server is
	// otherwise idle, so one oversized client degrades to serial service
	// instead of being rejected forever.
	MaxQueuedCandidates int
	// RetryAfterHint paces rejected clients: the Retry-After carried by 429
	// responses (default 1s).
	RetryAfterHint time.Duration
	// TenantWeights assigns fair-share weights to tenant identities for the
	// admission gate (see admission): under contention a tenant's slice of
	// MaxQueuedCandidates is max·w/ΣW over the active tenants. Tenants not
	// listed (including "default") weigh 1. nil means every tenant weighs 1
	// — equal shares.
	TenantWeights map[string]float64
	// DrainTimeout bounds the graceful-drain phase of ListenAndServe's
	// shutdown: how long in-flight batches may finish after SIGINT/SIGTERM
	// before they are hard-canceled (default 30s).
	DrainTimeout time.Duration
	// SlowBatchThreshold, when positive, logs one structured line for
	// every batch slower than it — trace ID included, so the line joins
	// against /v1/traces. Zero disables slow-batch logging.
	SlowBatchThreshold time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on this
	// server's handler. Off by default: profiling endpoints on a
	// production port are an operator decision.
	EnablePprof bool
}

func (c *Config) defaults() {
	if len(c.Archs) == 0 {
		c.Archs = isa.Archs()
	}
	if c.WorkersPerArch <= 0 {
		c.WorkersPerArch = 4
	}
	if c.MaxResidentResults == 0 {
		c.MaxResidentResults = 1 << 18
	}
	if c.MaxQueuedCandidates <= 0 {
		c.MaxQueuedCandidates = 1 << 16
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
}

// WorkloadSpec is the wire-level workload signature: enough for the server
// to reconstruct the workload from scratch (closures cannot travel over
// JSON) and stable enough to hash into cache keys.
type WorkloadSpec struct {
	// Kind selects the kernel type: "conv_group" (default) or "matmul".
	Kind string `json:"kind"`
	// Scale and Group identify a Table II conv group (conv_group kind).
	Scale string `json:"scale,omitempty"`
	Group int    `json:"group,omitempty"`
	// Dims are the matmul [n, l, m] extents (matmul kind).
	Dims []int `json:"dims,omitempty"`
}

// ConvGroupSpec is the signature of a Table II Conv2D+Bias+ReLU group.
func ConvGroupSpec(scale te.Scale, group int) WorkloadSpec {
	return WorkloadSpec{Kind: "conv_group", Scale: string(scale), Group: group}
}

// MatMulSpec is the signature of an n×l · l×m matmul workload.
func MatMulSpec(n, l, m int) WorkloadSpec {
	return WorkloadSpec{Kind: "matmul", Dims: []int{n, l, m}}
}

// Factory resolves the spec into a workload factory, validating it fully so
// a malformed request fails the batch up front instead of panicking a
// worker.
func (w WorkloadSpec) Factory() (runner.WorkloadFactory, error) {
	switch w.Kind {
	case "", "conv_group":
		scale, err := te.ParseScale(w.Scale)
		if err != nil {
			return nil, fmt.Errorf("service: workload: %w", err)
		}
		if w.Group < 0 || w.Group >= te.NumConvGroups {
			return nil, fmt.Errorf("service: workload: group %d out of range [0,%d)",
				w.Group, te.NumConvGroups)
		}
		group := w.Group
		return func() *te.Workload { return te.ConvGroup(scale, group) }, nil
	case "matmul":
		if len(w.Dims) != 3 {
			return nil, fmt.Errorf("service: workload: matmul wants 3 dims, got %d", len(w.Dims))
		}
		n, l, m := w.Dims[0], w.Dims[1], w.Dims[2]
		if n <= 0 || l <= 0 || m <= 0 {
			return nil, fmt.Errorf("service: workload: matmul dims must be positive, got %v", w.Dims)
		}
		return func() *te.Workload { return te.MatMul(n, l, m) }, nil
	}
	return nil, fmt.Errorf("service: workload: unknown kind %q (want conv_group|matmul)", w.Kind)
}

// signature renders the canonical identity string hashed into cache keys.
// It must stay injective over valid specs and stable across releases.
func (w WorkloadSpec) signature() string {
	var buf [64]byte
	return string(w.appendSignature(buf[:0]))
}

// appendSignature appends the signature with plain appends: it is part of
// every batch's cache-key prefix, where formatting has no place. Dims are in
// the form fmt's %v gives a []int — "[16 16 16]" — which is what every stored
// key was hashed over.
func (w WorkloadSpec) appendSignature(dst []byte) []byte {
	switch w.Kind {
	case "", "conv_group":
		dst = append(dst, "conv_group/"...)
		dst = append(dst, w.Scale...)
		dst = append(dst, '/')
		return strconv.AppendInt(dst, int64(w.Group), 10)
	case "matmul":
		return appendInts(append(dst, "matmul/"...), w.Dims, ' ')
	}
	dst = append(dst, w.Kind...)
	dst = append(dst, '/')
	dst = append(dst, w.Scale...)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(w.Group), 10)
	return appendInts(append(dst, '/'), w.Dims, ' ')
}
