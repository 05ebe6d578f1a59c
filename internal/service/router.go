package service

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/obs"
)

// RouterConfig sizes a Router.
type RouterConfig struct {
	// Nodes are the backend server base URLs, e.g.
	// ["http://sim-0:8070", "http://sim-1:8070"]. The strings are also the
	// ring identities, so keep them stable across router restarts — the
	// ring placement (and therefore which node's cache owns which key)
	// derives from them.
	Nodes []string
	// ProbeInterval paces the background /v1/statusz health probe that
	// returns recovered nodes to rotation (default 2s; negative disables
	// probing — down nodes then stay down until probeOnce is called).
	ProbeInterval time.Duration
	// HTTPClient overrides the transport shared by all node clients.
	HTTPClient *http.Client
	// ReplicationFactor is how many ring nodes hold each key: the owner
	// plus RF-1 successors (default 2; clamped to the node count; 1 turns
	// replication off; negative is a configuration error). Fresh results
	// are write-through replicated after each batch, and the anti-entropy
	// round repairs whatever the write-through missed — so a permanently
	// lost node's keys are re-served by its replica at hit rate instead of
	// re-simulated at cold rate.
	ReplicationFactor int
	// AntiEntropyInterval paces the background anti-entropy round (default
	// 1m; negative disables the loop — antiEntropyOnce still works, which
	// is what tests and operators drive directly).
	AntiEntropyInterval time.Duration
	// SlowBatchThreshold, when positive, logs one structured line per batch
	// slower than it at the routing tier (same format as the node's).
	SlowBatchThreshold time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the router's
	// handler.
	EnablePprof bool
}

const (
	// moveChunk bounds how many results travel per fetch/ingest round trip
	// when keys move between nodes (see move).
	moveChunk = 256
	// rejoinTimeout bounds one node's whole rejoin replay — generous, since
	// a replay moves cached results, never simulations.
	rejoinTimeout = 2 * time.Minute
)

func (c *RouterConfig) defaults() {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 2
	}
	if c.AntiEntropyInterval == 0 {
		c.AntiEntropyInterval = time.Minute
	}
}

// Router is the horizontal scaling tier of the simulate service: it
// implements Backend over N backend servers by consistent-hashing the
// sha256 cache-key space across them. Each incoming batch is split by ring
// owner, the sub-batches fan out to their owning nodes concurrently, and
// the per-candidate results are re-assembled index-aligned — so the wire
// protocol is unchanged at every tier (clients cannot tell a router from a
// leaf server) while each cache key lives on exactly one node and
// concurrent clients dedupe globally instead of per-node.
//
// Nodes that fail a probe or a simulate call leave rotation and their key
// range drains to their ring successors; the background probe returns them
// once /v1/statusz answers again. Only retryable faults (5xx, transport)
// trigger failover — a 4xx means the request itself is broken and no
// replica can help, and a 501 ("arch not served here", heterogeneous -archs
// fleets) re-routes the batch around the healthy node without ejecting it.
type Router struct {
	cfg   RouterConfig
	ring  *ring
	nodes []*routerNode
	start time.Time

	requests   atomic.Uint64
	candidates atomic.Uint64
	rerouted   atomic.Uint64
	// handoffKeys counts results this router replayed into rejoining nodes
	// (warm handoff). Leaf servers count their own ingests; this is the
	// router-side view of the same transfers.
	handoffKeys atomic.Uint64
	// replicaKeys counts entries this router copied onto ring replicas —
	// write-through after a miss-fill plus anti-entropy repairs. Like
	// handoffKeys, a parallel ledger: replication serves no candidate.
	replicaKeys atomic.Uint64
	// aeRounds counts completed anti-entropy rounds.
	aeRounds atomic.Uint64

	// tel is the routing-tier instrument panel: per-outcome batch and
	// per-stage histograms in its own panel, per-node dispatch histograms
	// (routerNode.latency), and the router's own trace ring. Telemetry here
	// is per-batch/per-sub-batch only — the router does no per-candidate
	// timing.
	tel *telemetry

	// stopBG cancels the background goroutines (health prober, anti-entropy
	// loop); bg tracks them plus the per-node probe goroutines.
	stopBG context.CancelFunc
	bg     sync.WaitGroup
}

// routerNode is one backend in the ring with its liveness state.
type routerNode struct {
	id      string
	backend Backend
	// latency records this node's sub-batch round trip as seen from the
	// router (the dispatch stage).
	latency *obs.Histogram

	up atomic.Bool
	// handingOff guards the rejoin replay: at most one warm handoff runs
	// per node, and while it runs the node stays out of rotation.
	handingOff atomic.Bool
	candidates atomic.Uint64

	mu      sync.Mutex
	lastErr string
}

func (n *routerNode) markDown(err error) {
	n.up.Store(false)
	n.mu.Lock()
	n.lastErr = err.Error()
	n.mu.Unlock()
}

func (n *routerNode) markUp() {
	n.up.Store(true)
	n.mu.Lock()
	n.lastErr = ""
	n.mu.Unlock()
}

func (n *routerNode) status() NodeStatus {
	n.mu.Lock()
	lastErr := n.lastErr
	n.mu.Unlock()
	return NodeStatus{
		ID:         n.id,
		Up:         n.up.Load(),
		Candidates: n.candidates.Load(),
		LastErr:    lastErr,
	}
}

// NewRouter builds a router over remote nodes and starts its health probe.
// Call Close to stop probing.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("service: router needs at least one node")
	}
	backends := make([]Backend, len(cfg.Nodes))
	for i, url := range cfg.Nodes {
		cl := NewClient(url)
		cl.HTTPClient = cfg.HTTPClient
		backends[i] = cl
	}
	return NewRouterBackends(cfg.Nodes, backends, cfg)
}

// NewRouterBackends wires arbitrary Backends into the ring — the seam for
// routing over in-process *Server values directly (tests, benchmarks,
// single-binary multi-shard deployments). ids are the ring identities,
// index-aligned with backends; cfg.Nodes is ignored.
func NewRouterBackends(ids []string, backends []Backend, cfg RouterConfig) (*Router, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("service: router needs at least one node")
	}
	if len(ids) != len(backends) {
		return nil, fmt.Errorf("service: router got %d ids for %d backends", len(ids), len(backends))
	}
	if cfg.ReplicationFactor < 0 {
		return nil, fmt.Errorf("service: ReplicationFactor must be >= 0, got %d", cfg.ReplicationFactor)
	}
	cfg.defaults()
	if cfg.ReplicationFactor > len(ids) {
		cfg.ReplicationFactor = len(ids)
	}
	tel := newTelemetry(cfg.SlowBatchThreshold, nil)
	rt := &Router{
		cfg:   cfg,
		ring:  newRing(ids, defaultRingReplicas),
		nodes: make([]*routerNode, len(ids)),
		start: time.Now(),
		tel:   tel,
	}
	for i := range ids {
		rt.nodes[i] = &routerNode{id: ids[i], backend: backends[i],
			latency: tel.m.Histogram(metricRtDisp, obs.Labels("node", ids[i]))}
		rt.nodes[i].up.Store(true)
	}
	// The lifecycle context outlives any single request: the prober and the
	// anti-entropy loop both run under it, and Close cancels it. It exists
	// even when both loops are configured off, so Close is always safe.
	lifeCtx, cancel := context.WithCancel(context.Background())
	rt.stopBG = cancel
	if cfg.ProbeInterval > 0 {
		// Fire-and-track: a slow rejoin replay on one node must not delay
		// liveness updates for the others, so rounds may overlap (per-node
		// replays stay single-flight).
		rt.every(lifeCtx, cfg.ProbeInterval, func() { rt.probe(lifeCtx) })
	}
	if cfg.AntiEntropyInterval > 0 && rt.replicationEnabled() {
		rt.every(lifeCtx, cfg.AntiEntropyInterval, func() { rt.antiEntropyOnce(lifeCtx) })
	}
	return rt, nil
}

// every runs f once per interval on a tracked background goroutine until ctx
// is cancelled.
func (rt *Router) every(ctx context.Context, interval time.Duration, f func()) {
	rt.bg.Add(1)
	go func() {
		defer rt.bg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				f()
			}
		}
	}()
}

// Close stops the background goroutines (health probe, anti-entropy loop).
// The router remains usable — nodes just no longer recover automatically and
// replica gaps are no longer repaired on a timer.
func (rt *Router) Close() {
	if rt.stopBG != nil {
		rt.stopBG()
		rt.bg.Wait()
		rt.stopBG = nil
	}
}

// probeOnce health-checks every node and flips their rotation state:
// statusz answering means up, anything else means out. A node
// transitioning down→up is a ring rejoin: before it re-enters rotation, the
// warm-handoff replay copies the results it owns from the peers that
// covered its range — ordering that matters, because the moment the node is
// marked up its keys route to it again, and any key it does not hold by
// then costs a duplicate simulation. If the replay fails, the node stays
// out of rotation and the next probe round retries it. probeOnce blocks
// until the round (replays included) finishes — the synchronous form used
// by tests; the background prober uses the non-blocking probe so a long
// replay on one node never delays liveness updates for the others.
func (rt *Router) probeOnce(ctx context.Context) {
	rt.probe(ctx).Wait()
}

// probe starts one concurrent health-check/rejoin round and returns its
// WaitGroup without waiting. Statusz probes are bounded by the probe
// timeout; a rejoin replay runs under its own rejoinTimeout budget and is
// guarded per node, so overlapping rounds never start a second replay.
func (rt *Router) probe(ctx context.Context) *sync.WaitGroup {
	timeout := rt.cfg.ProbeInterval
	if timeout <= 0 { // probing disabled; direct calls still need a bound
		timeout = 2 * time.Second
	}
	wg := new(sync.WaitGroup)
	for i, n := range rt.nodes {
		wg.Add(1)
		rt.bg.Add(1)
		go func(i int, n *routerNode) {
			defer wg.Done()
			defer rt.bg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, timeout)
			st, err := n.backend.Statusz(probeCtx)
			cancel()
			if err != nil {
				n.markDown(err)
				return
			}
			if st.Draining {
				// The node answered but is shutting down: a planned down→up
				// cycle. Leave rotation now so its keys drain to successors,
				// and when its replacement answers statusz without the flag,
				// the normal rejoin replay warms it back up — warm handoff
				// covers rolling restarts for free.
				n.markDown(fmt.Errorf("draining"))
				return
			}
			if n.up.Load() {
				n.markUp()
				return
			}
			// Rejoin: replay the node's corpus before rotation, at most one
			// replay per node at a time. The replay gets its own (generous)
			// budget — the probe timeout paces liveness checks, not bulk
			// replication.
			if !n.handingOff.CompareAndSwap(false, true) {
				return // a replay is already running; it decides the markUp
			}
			defer n.handingOff.Store(false)
			hctx, hcancel := context.WithTimeout(ctx, rejoinTimeout)
			defer hcancel()
			rt.rejoin(hctx, i, n)
		}(i, n)
	}
	return wg
}

// rejoin replays the results node idx owns on the ring from the peers that
// held them while it was down, then returns it to rotation. Error
// semantics, chosen so a node can neither rejoin unwarmed nor be locked
// out forever:
//
//   - Peer-side errors are tolerated: a struggling peer's keys stay where
//     they are, and re-simulating them later is the bounded fallback.
//   - A transient target-side error leaves the node out of rotation; the
//     next probe round retries the replay.
//   - A non-retryable target-side error (404/405 from a backend without
//     the handoff endpoints — an older server, or a router used as a node)
//     means there is no replication surface to wait for: the node rejoins
//     without a replay rather than being retried to the same answer
//     forever.
//
// The replay never moves a key to a node that does not own it, and ingest
// skips keys the node already holds, so replaying is always safe to
// repeat.
func (rt *Router) rejoin(ctx context.Context, idx int, n *routerNode) {
	target, ok := n.backend.(HandoffBackend)
	if !ok {
		n.markUp() // nothing to replay through (in-process router, ...)
		return
	}
	// What the rejoining node already holds (it may have kept RAM, or
	// recovered a durable store): those keys need no transfer.
	have := make(map[Key]bool)
	targetKeys, err := target.Keys(ctx, 0, ^uint64(0))
	if err != nil {
		if !IsRetryable(err) {
			n.markUp() // no handoff surface on this node; rejoin unwarmed
		}
		return // transient: stay down, next probe round retries
	}
	for _, k := range targetKeys {
		have[k] = true
	}
	// One round: list every live peer, copy the keys idx owns (decided
	// against the ring, which hashes exactly what the peers hashed) that are
	// not yet in have. Only idx is a target, so only idx has a has-set; plan
	// enters what it plans into it, which is what makes the next round see
	// only the delta. ok is false only when the rejoining node itself failed
	// an ingest — peer-side errors just leave those keys where they are.
	has := make([]map[Key]bool, len(rt.nodes))
	has[idx] = have
	self := []int{idx}
	round := func() (planned int, ok bool) {
		transfers := plan(rt.inventories(ctx, idx), has, func(k Key) []int {
			if rt.ring.owner(k) == idx {
				return self
			}
			return nil
		})
		_, failed := rt.move(ctx, transfers, &rt.handoffKeys)
		return len(transfers), !failed[idx]
	}
	// Delta rounds: while the replay runs the node is still out of
	// rotation, so its keys keep draining to the successors — a peer may
	// compute more owned results after its inventory was taken. Re-scan
	// until a round plans nothing; the cap bounds a pathological client
	// that produces owned keys faster than they can be copied.
	for pass := 0; pass < 4; pass++ {
		planned, ok := round()
		if !ok {
			return // the rejoining node faltered; retry later
		}
		if planned == 0 {
			break
		}
	}
	n.markUp()
	// Closing round: a key in flight on a successor when the last round
	// scanned may have completed just before markUp and would otherwise be
	// stranded there (anything computed after markUp routes to the node
	// itself). One post-markUp round closes that window.
	round()
}

// inventories lists the keys of every live node with a handoff surface, in
// parallel, skip aside (-1 skips nobody). One full listing per node:
// /v1/keys also accepts ?range= for narrower pulls, but with 128 virtual
// nodes per backend any node's share is many small arcs, so one listing is
// the cheaper shape. A node whose listing fails is absent from the result
// for this round, which is not the same as present and empty: an empty node
// is a target that lacks everything, an absent one is neither a source nor a
// target until the next round asks it again.
func (rt *Router) inventories(ctx context.Context, skip int) map[int][]Key {
	var mu sync.Mutex
	invs := make(map[int][]Key, len(rt.nodes))
	rt.eachNode(func(i int, n *routerNode) {
		hb, ok := n.backend.(HandoffBackend)
		if !ok || i == skip || !n.up.Load() {
			return
		}
		if keys, err := hb.Keys(ctx, 0, ^uint64(0)); err == nil {
			mu.Lock()
			invs[i] = keys
			mu.Unlock()
		}
	})
	return invs
}

// eachNode runs f for every node concurrently and returns when all are done.
func (rt *Router) eachNode(f func(i int, n *routerNode)) {
	var wg sync.WaitGroup
	for i, n := range rt.nodes {
		wg.Add(1)
		go func(i int, n *routerNode) {
			defer wg.Done()
			f(i, n)
		}(i, n)
	}
	wg.Wait()
}

// transfer is one planned copy into target: keys to fetch from source, or —
// source -1: write-through, which has just been handed the results — entries
// in hand.
type transfer struct {
	source, target int
	keys           []Key
	entries        []Entry
}

// plan diffs inventories against placement: for every key held anywhere,
// each node place(k) names that lacks it gets it from the first node seen
// holding it. has[j] is what node j holds; a node with no has-set is not a
// target, a node with no inventory is not a source. A planned key is entered
// into the target's has-set, so each key is planned once per round (a second
// holder finds nothing missing) and a caller that keeps a has-set across
// rounds sees only the delta. Pure: no Router, no I/O.
func plan(invs map[int][]Key, has []map[Key]bool, place func(Key) []int) []transfer {
	var out []transfer
	at := make(map[[2]int]int) // (source, target) → index into out
	for i := range has {
		for _, k := range invs[i] {
			for _, j := range place(k) {
				if j == i || has[j] == nil || has[j][k] {
					continue
				}
				has[j][k] = true
				t, ok := at[[2]int{i, j}]
				if !ok {
					t = len(out)
					at[[2]int{i, j}] = t
					out = append(out, transfer{source: i, target: j})
				}
				out[t].keys = append(out[t].keys, k)
			}
		}
	}
	return out
}

// move carries out transfers — the only loop that steps by moveChunk, and
// the only place results travel between nodes. Each chunk is fetched from
// the source (unless the entries are in hand) and ingested into the target;
// ledger is credited with what the target reports as new, which is also
// what moved sums. Errors are tolerated, never retried inline: a failed
// fetch ends that transfer (the source is struggling; its keys stay where
// they are and the next round replans), a failed ingest stops every further
// send to that target and is reported in failed.
func (rt *Router) move(ctx context.Context, transfers []transfer, ledger *atomic.Uint64) (moved int, failed map[int]bool) {
	failed = make(map[int]bool)
	for _, t := range transfers {
		target, ok := rt.nodes[t.target].backend.(HandoffBackend)
		if !ok || failed[t.target] {
			continue
		}
		n := len(t.keys)
		var source HandoffBackend
		if t.source < 0 {
			n = len(t.entries)
		} else if source, ok = rt.nodes[t.source].backend.(HandoffBackend); !ok {
			continue
		}
		for start := 0; start < n; start += moveChunk {
			end := min(start+moveChunk, n)
			var entries []Entry
			if source == nil {
				entries = t.entries[start:end]
			} else {
				var err error
				if entries, err = source.Fetch(ctx, t.keys[start:end]); err != nil {
					break
				}
			}
			got, err := target.Ingest(ctx, entries)
			if err != nil {
				failed[t.target] = true
				break
			}
			moved += got
			ledger.Add(uint64(got))
		}
	}
	return moved, failed
}

// replicationEnabled reports whether the ring keeps multiple copies of each
// key (ReplicationFactor is already clamped to the node count).
func (rt *Router) replicationEnabled() bool { return rt.cfg.ReplicationFactor > 1 }

// liveReplicas returns the first ReplicationFactor live nodes on k's
// successor walk (index 0 is the owner when it is up). Computing the replica
// set against liveness — not fixed ring positions — is what makes the scheme
// self-healing: when a node is permanently lost, the walk extends past it
// and the next live successor inherits replica duty for its range.
func (rt *Router) liveReplicas(k Key) []int {
	out := make([]int, 0, rt.cfg.ReplicationFactor)
	for _, n := range rt.ring.successors(k) {
		if !rt.nodes[n].up.Load() {
			continue
		}
		out = append(out, n)
		if len(out) == rt.cfg.ReplicationFactor {
			break
		}
	}
	return out
}

// replicateFresh write-through-replicates a batch's freshly computed results
// (miss-fills, never cache hits) onto each key's other live replicas. It runs
// synchronously at the end of Simulate — by the time a batch returns, its
// results are already on ReplicationFactor nodes, so statusz reconciliation
// across the fleet never observes replication in flight. The copies land via
// /v1/ingest, which skips keys the replica already holds, so replaying a key
// is always safe; a replica that cannot take its copy right now is repaired
// by a later anti-entropy round.
func (rt *Router) replicateFresh(ctx context.Context, keys []Key, results []Result, servedBy []int) {
	if !rt.replicationEnabled() {
		return
	}
	r0 := time.Now()
	byTarget := make(map[int][]Entry)
	seen := make(map[Key]bool, len(keys))
	for i, k := range keys {
		if servedBy[i] < 0 || results[i].CacheHit || seen[k] {
			continue
		}
		seen[k] = true
		for _, j := range rt.liveReplicas(k) {
			if j == servedBy[i] {
				continue
			}
			byTarget[j] = append(byTarget[j], Entry{Key: k, Result: results[i]})
		}
	}
	if len(byTarget) == 0 {
		return
	}
	transfers := make([]transfer, 0, len(byTarget))
	for j, entries := range byTarget {
		transfers = append(transfers, transfer{source: -1, target: j, entries: entries})
	}
	rt.move(ctx, transfers, &rt.replicaKeys)
	rt.tel.stage[stReplicate].Observe(time.Since(r0))
}

// antiEntropyOnce runs one anti-entropy round: diff the live nodes' key
// inventories (/v1/keys) against each key's replica set and copy every
// missing entry from a node that holds it. The round is the repair path for
// everything write-through cannot cover — a replica that was down when its
// copy was pushed, a node permanently lost with its disk, a fleet whose
// ReplicationFactor was just raised. Returns how many entries moved, so
// callers can loop until a round moves nothing (convergence). Safe to run
// concurrently with serving: ingest is idempotent and never evicts.
func (rt *Router) antiEntropyOnce(ctx context.Context) int {
	if !rt.replicationEnabled() {
		return 0
	}
	a0 := time.Now()
	invs := rt.inventories(ctx, -1)
	has := make([]map[Key]bool, len(rt.nodes))
	for i, keys := range invs {
		has[i] = make(map[Key]bool, len(keys))
		for _, k := range keys {
			has[i][k] = true
		}
	}
	moved, _ := rt.move(ctx, plan(invs, has, rt.liveReplicas), &rt.replicaKeys)
	rt.aeRounds.Add(1)
	rt.tel.stage[stAntiEntropy].Observe(time.Since(a0))
	return moved
}

// action is what Router.Simulate does with one sub-batch's outcome.
type action int

const (
	deliver      action = iota // place the results
	callerCancel               // fail the batch: the caller gave up
	routeAround                // 501: skip the node for this batch only
	shed                       // 429: skip the node for this batch only
	failRequest                // fail the batch: the request is defective
	nodeFault                  // take the node out of rotation, retry on successors
)

// classify decides a sub-batch's action from the node's answer and whether
// the caller's context is done. The order is the policy: the caller's
// cancellation wins over any node error (it says nothing about node health,
// so it never ejects a node or reroutes); a 501 or a 429 skips a healthy node
// for this batch only — and 429 is retryable, so it is recognised before
// generic retryability would call it a node fault; any other non-retryable
// error is the node proving the request itself defective, which no replica
// can help; what is left is a node fault, and its keys drain to successors.
func classify(err error, callerDone bool) action {
	switch {
	case err == nil:
		return deliver
	case callerDone:
		return callerCancel
	case isUnserved(err):
		return routeAround
	case isOverloaded(err):
		return shed
	case !IsRetryable(err):
		return failRequest
	}
	return nodeFault
}

// Simulate implements Backend: split the batch by ring owner, fan sub-batches
// out to the owning nodes, re-assemble index-aligned. Node faults re-route
// the failed sub-batch to each key's ring successors; request defects (4xx)
// and the caller's own cancellation fail the batch immediately.
func (rt *Router) Simulate(ctx context.Context, req *SimulateRequest) (_ *SimulateResponse, err error) {
	// Telemetry opens first: the trace ID the client minted (or one minted
	// here) is in ctx before any node call, so every dispatch — including
	// reroute hops — carries the same X-Simtune-Trace identity downstream.
	// Every way out seals the batch under the outcome in force at that point.
	ctx, b := rt.tel.begin(ctx, "router", req)
	outcome := outError
	defer func() { b.finish(rt.tel.batch[outcome], err) }()

	// Validate up front so malformed requests are rejected at the routing
	// tier — they must never count as node faults or trigger failover.
	arch, err := isa.ParseArch(req.Arch)
	if err != nil {
		return nil, fmt.Errorf("service: %w", badRequestf("%v", err))
	}
	if _, err := req.Workload.Factory(); err != nil {
		return nil, fmt.Errorf("service: %w", badRequestf("%v", err))
	}
	rt.requests.Add(1)
	rt.candidates.Add(uint64(len(req.Candidates)))

	// The routing decision hashes exactly what the node's cache will hash,
	// so a key's simulate traffic and its cache entry meet on one node.
	// Keys are kept for failover; the successor walk itself is deferred to
	// the (rare) rounds where a key's owner is down, keeping the
	// all-nodes-up hot path to one hash and one ring lookup per candidate.
	sp0 := time.Now()
	caches := hw.Lookup(arch).Caches
	prefix := keyPrefix(make([]byte, 0, 128), arch, caches, req.Workload)
	keys := make([]Key, len(req.Candidates))
	remaining := make([]int, len(req.Candidates))
	for i, c := range req.Candidates {
		keys[i] = candidateKey(prefix, c.Steps)
		remaining[i] = i
	}
	b.timed(stSplit, rt.tel.stage[stSplit], sp0, time.Since(sp0), len(req.Candidates), "")

	results := make([]Result, len(req.Candidates))
	// servedBy records which node produced each result so the write-through
	// replication pass can copy fresh results to the other replicas without
	// re-ingesting into the node that just computed them.
	servedBy := slices.Repeat([]int{-1}, len(req.Candidates))
	// excluded marks nodes that declined THIS batch while staying healthy:
	// a 501 (arch not served there) or a 429 (admission gate full). Both
	// stay in rotation for other traffic, but this batch's keys must route
	// past them.
	excluded := make([]bool, len(rt.nodes))
	var unservedErr, overloadErr error
	for attempt := 0; len(remaining) > 0; attempt++ {
		if attempt > len(rt.nodes) {
			outcome = outUndeliverable
			return nil, fmt.Errorf("service: %w",
				unavailablef("batch undeliverable after %d failover rounds", attempt))
		}
		replies, routed := rt.dispatchRound(ctx, b, req, keys, remaining, excluded)
		switch {
		case routed:
		case overloadErr != nil:
			// Every live node is saturated: propagate the 429 (with its
			// Retry-After) so the client backs off and retries.
			outcome = outOverloaded
			return nil, overloadErr
		case unservedErr != nil:
			// Every live node declined the arch: the fleet's config fails
			// this batch — the stable 501 keeps clients from spinning.
			outcome = outUnserved
			return nil, unservedErr
		default:
			outcome = outUndeliverable
			return nil, fmt.Errorf("service: %w", unavailablef("no live nodes (of %d)", len(rt.nodes)))
		}
		remaining = nil
		var batchErr error
		for _, o := range replies {
			switch classify(o.err, ctx.Err() != nil) {
			case deliver:
				for j, i := range o.idx {
					results[i] = o.resp.Results[j]
					servedBy[i] = o.node
				}
				rt.nodes[o.node].candidates.Add(uint64(len(o.idx)))
				continue
			case callerCancel, failRequest:
				if batchErr == nil {
					batchErr = o.err
				}
				continue
			case routeAround:
				excluded[o.node] = true
				unservedErr = o.err
			case shed:
				excluded[o.node] = true
				overloadErr = o.err
			case nodeFault:
				rt.nodes[o.node].markDown(o.err)
			}
			// The keys go round again. The reroute span carries the failed
			// dispatch's cost — what this batch paid before its keys moved on.
			rt.rerouted.Add(1)
			b.timed(stReroute, rt.tel.stage[stReroute], o.t0, o.dur, len(o.idx), rt.nodes[o.node].id)
			remaining = append(remaining, o.idx...)
		}
		if batchErr != nil {
			if ctx.Err() != nil {
				outcome = outCanceled
			}
			return nil, batchErr
		}
	}
	// Write-through: before the batch returns, its miss-fills are copied to
	// their other live replicas. Synchronous on purpose — fleet-wide counters
	// reconcile at every instant, and a node lost the moment after a batch
	// completes has already been covered.
	rt.replicateFresh(ctx, keys, results, servedBy)
	outcome = outOK
	return &SimulateResponse{Results: results}, nil
}

// reply is one sub-batch's answer in a dispatch round.
type reply struct {
	node int
	idx  []int // the batch positions the sub-batch carried
	resp *SimulateResponse
	err  error
	t0   time.Time
	dur  time.Duration
}

// dispatchRound is one round of Simulate's failover loop: it groups the
// remaining candidates by the first live node on each key's ring walk that
// has not declined this batch (excluded), sends every group to its node
// concurrently and collects all the replies. routed is false, and nothing is
// sent, when some candidate has no such node left.
func (rt *Router) dispatchRound(ctx context.Context, b *batch, req *SimulateRequest, keys []Key, remaining []int, excluded []bool) (replies []reply, routed bool) {
	pick := func(k Key) int {
		if n := rt.ring.owner(k); rt.nodes[n].up.Load() && !excluded[n] {
			return n
		}
		for _, n := range rt.ring.successors(k) {
			if rt.nodes[n].up.Load() && !excluded[n] {
				return n
			}
		}
		return -1
	}
	groups := make(map[int][]int)
	for _, i := range remaining {
		n := pick(keys[i])
		if n < 0 {
			return nil, false
		}
		groups[n] = append(groups[n], i)
	}
	ch := make(chan reply, len(groups))
	for n, idx := range groups {
		go func(n int, idx []int) {
			node := rt.nodes[n]
			sub := &SimulateRequest{Arch: req.Arch, Workload: req.Workload,
				Candidates: make([]Candidate, len(idx))}
			for j, i := range idx {
				sub.Candidates[j] = req.Candidates[i]
			}
			t0 := time.Now()
			resp, err := node.backend.Simulate(ctx, sub)
			dur := time.Since(t0)
			b.timed(stDispatch, node.latency, t0, dur, len(idx), node.id)
			if err == nil && len(resp.Results) != len(idx) {
				err = fmt.Errorf("service: node %s returned %d results for %d candidates",
					node.id, len(resp.Results), len(idx))
			}
			ch <- reply{node: n, idx: idx, resp: resp, err: err, t0: t0, dur: dur}
		}(n, idx)
	}
	replies = make([]reply, len(groups))
	for i := range replies {
		replies[i] = <-ch
	}
	return replies, true
}

// ledgers reads the router's own counters into the statusz shape.
func (rt *Router) ledgers() *Statusz {
	return &Statusz{
		UptimeSec:         time.Since(rt.start).Seconds(),
		Requests:          rt.requests.Load(),
		Candidates:        rt.candidates.Load(),
		Rerouted:          rt.rerouted.Load(),
		HandoffKeys:       rt.handoffKeys.Load(),
		ReplicaKeys:       rt.replicaKeys.Load(),
		AntiEntropyRounds: rt.aeRounds.Load(),
	}
}

// Statusz implements Backend: the router's own routing counters plus the
// reachable nodes' counters summed — cache hits/misses/canceled and entries
// across the fleet, and per-arch shard loads merged by architecture — with a
// per-node breakdown in Nodes. Unreachable nodes are reported but not
// summed (their counters are unknowable, not zero).
func (rt *Router) Statusz(ctx context.Context) (*Statusz, error) {
	agg := rt.ledgers()
	type nodeStatusz struct {
		st  *Statusz
		err error
	}
	polled := make([]nodeStatusz, len(rt.nodes))
	rt.eachNode(func(i int, n *routerNode) { polled[i].st, polled[i].err = n.backend.Statusz(ctx) })

	for i, n := range rt.nodes {
		ns := n.status()
		if polled[i].err != nil {
			ns.Up = false
			ns.LastErr = polled[i].err.Error()
			agg.Nodes = append(agg.Nodes, ns)
			continue
		}
		st := polled[i].st
		ns.Draining = st.Draining
		agg.Nodes = append(agg.Nodes, ns)
		sumLedgers(statuszLedgers, agg, st)
		// Shard rows merge by arch and tenant rows by tenant name: a key the
		// aggregate has not seen is appended bare, then the node's row is
		// summed into it — per tenant the fleet view reconciles like a node's.
		for i := range st.Shards {
			sh := &st.Shards[i]
			j := slices.IndexFunc(agg.Shards, func(a ShardStatus) bool { return a.Arch == sh.Arch })
			if j < 0 {
				j, agg.Shards = len(agg.Shards), append(agg.Shards, ShardStatus{Arch: sh.Arch})
			}
			sumLedgers(shardLedgers, &agg.Shards[j], sh)
		}
		for i := range st.Tenants {
			ts := &st.Tenants[i]
			j := slices.IndexFunc(agg.Tenants, func(a TenantStatus) bool { return a.Tenant == ts.Tenant })
			if j < 0 {
				j, agg.Tenants = len(agg.Tenants), append(agg.Tenants, TenantStatus{Tenant: ts.Tenant})
			}
			// Weights are per-node configuration and homogeneous fleets
			// agree; the router reports the max it saw.
			agg.Tenants[j].Weight = max(agg.Tenants[j].Weight, ts.Weight)
			sumLedgers(tenantLedgers, &agg.Tenants[j], ts)
		}
	}
	sort.Slice(agg.Tenants, func(i, j int) bool { return agg.Tenants[i].Tenant < agg.Tenants[j].Tenant })
	// Stages on a router statusz summarizes the routing tier's own
	// histograms (split, dispatch, reroute, per-outcome batches). The exact
	// fleet-wide merge — node histograms folded bucket-wise — lives on
	// /v1/metrics; quantiles cannot be merged after summarization, so they
	// are never summed here.
	agg.Stages = stageLatencies(rt.tel.m.Snapshot())
	return agg, nil
}

// MetricsSnapshot implements MetricsBackend at the routing tier: the
// router's own series merged with every reachable node's snapshot. The
// histograms merge bucket-wise (obs.Snapshot.Merge), so a quantile rendered
// from the result is the quantile of the combined fleet sample — exact,
// where averaging per-node p99s would be wrong by up to the fleet's spread.
// Unreachable nodes and nodes without a telemetry surface are skipped, like
// Statusz skips their counters.
func (rt *Router) MetricsSnapshot(ctx context.Context) (*obs.MetricsSnapshot, error) {
	snap := &obs.MetricsSnapshot{Hists: rt.tel.m.Snapshot()}
	exportLedgers(snap, statuszLedgers, rt.ledgers(), "", func(l ledger) string { return l.router })
	snap.Gauges = append(snap.Gauges, obs.RuntimeGauges()...)

	polled := make([]*obs.MetricsSnapshot, len(rt.nodes))
	rt.eachNode(func(i int, n *routerNode) {
		if mb, ok := n.backend.(MetricsBackend); ok && n.up.Load() {
			if s, err := mb.MetricsSnapshot(ctx); err == nil {
				polled[i] = s
			}
		}
	})
	for _, s := range polled {
		snap.Merge(s)
	}
	return snap, nil
}

// Handler exposes the router over the same wire protocol as a leaf server.
func (rt *Router) Handler() http.Handler { return backendHandler(rt, rt.tel, rt.cfg.EnablePprof) }

// ListenAndServe runs the router's HTTP surface until ctx is cancelled (see
// Server.ListenAndServe), then stops the health probe. The router holds no
// durable state, so it has no drain phase of its own — in-flight proxied
// batches are bounded by the HTTP shutdown grace below.
func (rt *Router) ListenAndServe(ctx context.Context, addr string) error {
	defer rt.Close()
	return serveHTTP(ctx, addr, rt.Handler(), nil)
}
