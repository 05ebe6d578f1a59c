// Package obs is the telemetry layer of the simulate service: lock-free
// latency histograms with exactly-mergeable snapshots, per-batch trace
// recording with a bounded in-memory ring, and Prometheus text rendering.
//
// Design constraints, in order:
//
//   - The hot path may not take locks or allocate. Histogram.Observe is a
//     handful of atomic adds; trace spans are recorded per batch (and per
//     cold event), never per cache hit.
//   - Fleet quantiles must be exact, not averaged. Histograms bucket by
//     powers of two, so two nodes' snapshots merge by element-wise addition
//     and the merged p99 is the p99 of the combined sample — averaging
//     per-node p99s (the common mistake) can be wrong by the full spread of
//     the fleet.
//   - Everything is nil-safe: a nil *Histogram, *Metrics or *TraceRing
//     discards what it is given. The service's telemetry is always on —
//     there is no switch that hands out nil handles — so nil-safety serves
//     the places that have no series of their own: a batch outcome not yet
//     known, or a Store opened without the server's histograms.
//
// Trace identity travels in a context value (WithTrace / TraceID) inside a
// process and as the TraceHeader HTTP header across it, so one batch keeps
// one identity from the tuning client through a router hop (including
// retry/reroute hops) to the node that simulates it.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// TraceHeader is the HTTP header that carries a batch's trace ID across
// process boundaries: the client stamps it on /v1/simulate requests, the
// router forwards it to the owning nodes, and every tier records its spans
// under the same ID.
const TraceHeader = "X-Simtune-Trace"

type traceKey struct{}

// WithTrace returns a context carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID returns the context's trace ID, or "" when none was attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// EnsureTrace returns the context unchanged when it already carries a trace
// ID, and otherwise attaches a fresh one — the client-side entry point that
// mints a batch's identity exactly once.
func EnsureTrace(ctx context.Context) (context.Context, string) {
	if id := TraceID(ctx); id != "" {
		return ctx, id
	}
	id := NewTraceID()
	return WithTrace(ctx, id), id
}

// NewTraceID mints a 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a constant
		// here only degrades trace grouping, never correctness.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
