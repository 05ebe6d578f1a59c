package service

import (
	"encoding/hex"
	"fmt"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// MarshalText renders a Key as lowercase hex — the wire form used by
// /v1/keys, /v1/fetch and /v1/ingest (encoding/json picks this up, so a
// Key field serializes as a 64-char hex string, not a 32-element array).
func (k Key) MarshalText() ([]byte, error) {
	dst := make([]byte, hex.EncodedLen(len(k)))
	hex.Encode(dst, k[:])
	return dst, nil
}

// UnmarshalText parses the hex wire form.
func (k *Key) UnmarshalText(b []byte) error {
	if hex.DecodedLen(len(b)) != len(k) {
		return fmt.Errorf("service: key %q: want %d hex chars", b, hex.EncodedLen(len(k)))
	}
	_, err := hex.Decode(k[:], b)
	return err
}

// Entry is one stored cache record on the replication surface: the content
// address and the result it addresses. It is what /v1/fetch returns and
// /v1/ingest accepts.
type Entry struct {
	Key    Key    `json:"key"`
	Result Result `json:"result"`
}

// KeysResponse is the GET /v1/keys body.
type KeysResponse struct {
	Keys []Key `json:"keys"`
}

// FetchRequest is the POST /v1/fetch body.
type FetchRequest struct {
	Keys []Key `json:"keys"`
}

// FetchResponse carries the found entries (requested keys the node no
// longer holds are dropped, not errored — the key listing may be stale).
type FetchResponse struct {
	Entries []Entry `json:"entries"`
}

// IngestRequest is the POST /v1/ingest body.
type IngestRequest struct {
	Entries []Entry `json:"entries"`
}

// IngestResponse reports how many entries were new to the node.
type IngestResponse struct {
	Ingested int `json:"ingested"`
}

// SimulateRequest is the POST /v1/simulate body: one batch of candidate
// schedules of a single (architecture, workload) pair — exactly the shape a
// tuner's measurement batch has, so one auto-scheduler batch maps to one
// request.
type SimulateRequest struct {
	// Arch is the target architecture ("x86"|"arm"|"riscv").
	Arch string `json:"arch"`
	// Workload identifies the kernel instance the steps apply to.
	Workload WorkloadSpec `json:"workload"`
	// Candidates are the schedules to simulate.
	Candidates []Candidate `json:"candidates"`
}

// Candidate is one schedule, identified by its replayable transform steps —
// the same representation ansor records and schedule.Replay consumes, so a
// step log measured remotely stays replayable locally (and vice versa).
type Candidate struct {
	Steps []schedule.Step `json:"steps"`
}

// SimulateResponse carries per-candidate results, index-aligned with the
// request's candidates.
type SimulateResponse struct {
	Results []Result `json:"results"`
}

// Result is the outcome of one candidate: simulator statistics on success
// (bit-identical to an in-process sim.Run of the same candidate — the stats
// are deterministic, only SimWallSeconds reflects when the work actually
// ran), or a deterministic build/simulation error. CacheHit marks results
// served by the content-addressed cache; their simulation cost was zero.
type Result struct {
	Stats    *sim.Stats `json:"stats,omitempty"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	Err      string     `json:"err,omitempty"`
}

// Statusz is the GET /v1/statusz body: the server-side counters operators
// (and the break-even analysis) watch — how much work the cache absorbed and
// how loaded each shard is. What each number is exported as, what a router
// reports for it and whether it is a term of hits + misses + canceled ==
// candidates is declared once, in ledger.go.
type Statusz struct {
	UptimeSec float64 `json:"uptime_sec"`
	// Draining reports that Shutdown has started: the node still answers
	// statusz but admits no new batches. Routers read it as a planned
	// down→up cycle and rotate the node out ahead of its restart.
	Draining bool `json:"draining,omitempty"`
	// Requests counts simulate batches, Candidates individual candidates.
	Requests   uint64 `json:"requests"`
	Candidates uint64 `json:"candidates"`
	// RejectedCandidates counts candidates refused by the admission gate
	// (429). Rejected work was never accepted.
	RejectedCandidates uint64 `json:"rejected_candidates"`
	// CacheHits/CacheMisses partition successfully served candidates;
	// CacheCanceled counts candidates whose batch was canceled before the
	// cache could serve them; Entries is the older name of CacheResident.
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CacheCanceled uint64 `json:"cache_canceled"`
	CacheEntries  int    `json:"cache_entries"`
	// CacheDiskHits is the subset of CacheHits served from the durable
	// store rather than RAM (first touch of a key after a restart or after
	// RAM eviction) — a breakdown, not an extra term.
	CacheDiskHits uint64 `json:"cache_disk_hits"`
	// CacheDiskEntries is the durable store's key count (0 without a
	// -cache-dir); it can exceed CacheResident, which is bounded.
	CacheDiskEntries int `json:"cache_disk_entries"`
	// CacheResident is the ARC resident count (|T1|+|T2| — the results
	// actually held in RAM).
	CacheResident int `json:"cache_resident"`
	// CacheEvictions counts resident results demoted to ghosts (or dropped)
	// by the ARC bound.
	CacheEvictions uint64 `json:"cache_evictions"`
	// HandoffKeys: on a leaf server, results installed via /v1/ingest
	// (warm-handoff replay into this node); on a router, results it
	// replayed into rejoining nodes.
	HandoffKeys uint64 `json:"handoff_keys"`
	// Shards reports per-architecture worker pools (on a router, merged by
	// arch).
	Shards []ShardStatus `json:"shards"`
	// Tenants partitions the candidate ledgers by tenant identity
	// (X-Simtune-Tenant; unidentified traffic lands in "default"), sorted
	// by tenant name; on a router, per-node rows merged by tenant name.
	// Empty until the first batch arrives.
	Tenants []TenantStatus `json:"tenants,omitempty"`
	// Nodes reports the backing servers when this statusz comes from a
	// routing tier.
	Nodes []NodeStatus `json:"nodes,omitempty"`
	// Rerouted counts sub-batches a router re-sent to a ring successor
	// (routing tier only).
	Rerouted uint64 `json:"rerouted,omitempty"`
	// Stages summarizes the telemetry histograms (one row per metric series:
	// per-stage, per-arch, per-outcome latency quantiles). The full mergeable
	// histograms are on /v1/metricsz and the Prometheus rendering on
	// /v1/metrics; statusz carries only the human-readable quantile summary.
	Stages []StageLatency `json:"stages,omitempty"`
	// StoreLiveBytes/StoreTotalBytes report the durable store's segment
	// footprint (live = still-referenced record bytes, total adds the
	// superseded duplicates an old log carried). Zero without -cache-dir.
	StoreLiveBytes  int64 `json:"store_live_bytes,omitempty"`
	StoreTotalBytes int64 `json:"store_total_bytes,omitempty"`
	// ReplicaKeys: on a router, entries it write-through-replicated or
	// anti-entropy-repaired onto ring replicas. Leaf servers report 0 —
	// their side of the traffic lands in HandoffKeys.
	ReplicaKeys uint64 `json:"replica_keys,omitempty"`
	// AntiEntropyRounds counts completed anti-entropy rounds on this router.
	AntiEntropyRounds uint64 `json:"antientropy_rounds,omitempty"`
}

// StageLatency is one telemetry histogram series summarized as quantiles —
// the statusz-friendly projection of the mergeable histogram that backs it.
// Quantiles are exact to within a factor of two (power-of-two buckets, max
// tracked exactly); Count is the number of observations.
type StageLatency struct {
	// Metric is the Prometheus family name (e.g. simtune_stage_duration_seconds).
	Metric string `json:"metric"`
	// Labels is the rendered label set (e.g. `stage="simulate",arch="x86"`).
	Labels string  `json:"labels,omitempty"`
	Count  uint64  `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// TracesResponse is the GET /v1/traces body: the tier's retained batch
// traces, newest first. Total counts every trace ever recorded, so a reader
// can tell how many scrolled out of the bounded ring.
type TracesResponse struct {
	Total  uint64      `json:"total"`
	Traces []obs.Trace `json:"traces"`
}

// HitRate returns the cache hit fraction over everything served so far.
func (s *Statusz) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// NodeStatus is one backing server as seen from a router: its ring identity,
// liveness, and the last fault that took it out of rotation.
type NodeStatus struct {
	ID string `json:"id"`
	Up bool   `json:"up"`
	// Candidates counts candidates this router routed to the node (its own
	// statusz may count more — other clients and routers reach it too).
	Candidates uint64 `json:"candidates"`
	// Draining mirrors the node's own statusz draining flag at the last
	// successful poll.
	Draining bool `json:"draining,omitempty"`
	// LastErr is the most recent probe/simulate fault ("" when healthy).
	LastErr string `json:"last_err,omitempty"`
}

// ShardStatus is one architecture shard's load.
type ShardStatus struct {
	Arch    string `json:"arch"`
	Workers int    `json:"workers"`
	// Queued candidates are waiting for a worker slot; Running hold one.
	Queued  int64 `json:"queued"`
	Running int64 `json:"running"`
	// Simulated counts completed cold-path simulations.
	Simulated uint64 `json:"simulated"`
}
