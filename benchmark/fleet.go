package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/num"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
)

// nodeBackend is what the router's ring is built over: a node client with
// its optional replication and telemetry surfaces.
type nodeBackend interface {
	service.Backend
	service.HandoffBackend
	service.MetricsBackend
}

// timedBackend records a span around every sub-batch the router dispatches
// to one node and around every replication push. It forwards the optional
// interfaces: a decorator that hid HandoffBackend would silently switch the
// router's write-through replication off.
type timedBackend struct {
	inner nodeBackend
	node  string
	tr    *tracer
}

var (
	_ service.Backend        = (*timedBackend)(nil)
	_ service.HandoffBackend = (*timedBackend)(nil)
	_ service.MetricsBackend = (*timedBackend)(nil)
)

func (b *timedBackend) Simulate(ctx context.Context, req *service.SimulateRequest) (*service.SimulateResponse, error) {
	if !b.tr.on() {
		return b.inner.Simulate(ctx, req)
	}
	t0 := time.Now()
	resp, err := b.inner.Simulate(ctx, req)
	b.tr.record("router.dispatch", obs.TraceID(ctx), b.node, t0, time.Now())
	return resp, err
}

func (b *timedBackend) Statusz(ctx context.Context) (*service.Statusz, error) {
	return b.inner.Statusz(ctx)
}

func (b *timedBackend) MetricsSnapshot(ctx context.Context) (*obs.MetricsSnapshot, error) {
	return b.inner.MetricsSnapshot(ctx)
}

func (b *timedBackend) Keys(ctx context.Context, lo, hi uint64) ([]service.Key, error) {
	return b.inner.Keys(ctx, lo, hi)
}

func (b *timedBackend) Fetch(ctx context.Context, keys []service.Key) ([]service.Entry, error) {
	return b.inner.Fetch(ctx, keys)
}

func (b *timedBackend) Ingest(ctx context.Context, entries []service.Entry) (int, error) {
	if !b.tr.on() {
		return b.inner.Ingest(ctx, entries)
	}
	t0 := time.Now()
	n, err := b.inner.Ingest(ctx, entries)
	b.tr.record("router.ingest", obs.TraceID(ctx), b.node, t0, time.Now())
	return n, err
}

// timedHandler records a span around the simulate and ingest requests an
// HTTP tier serves, under the trace id the request carries.
func timedHandler(inner http.Handler, tr *tracer, simulateName, ingestName, node string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch r.URL.Path {
		case "/v1/simulate":
			name = simulateName
		case "/v1/ingest":
			name = ingestName
		}
		if name == "" || !tr.on() {
			inner.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		tr.record(name, r.Header.Get(obs.TraceHeader), node, t0, time.Now())
	})
}

// fleetSize sizes a fleet workload.
type fleetSize struct {
	Pool poolSize
	// Requests is the length of the fixed operation list, one pass.
	Requests int
}

var (
	fullFleetSize  = fleetSize{Pool: fullPool, Requests: 256}
	smokeFleetSize = fleetSize{Pool: smokePool, Requests: 24}
)

// churnResident is the results each fleet_churn node keeps in RAM.
const churnResident = 256

// primed is what priming learnt about one pool candidate: the statistics the
// fleet first computed for its key.
type primed struct {
	digest [sha256.Size]byte
	total  uint64
}

// freshExchange is one never-seen request with the response it got.
type freshExchange struct {
	req  *service.SimulateRequest
	resp *service.SimulateResponse
}

// fleet is the fleet_hit and fleet_churn workload: keep-alive HTTP clients in
// a closed loop against a router over three simulate nodes, all in this
// process over loopback.
type fleet struct {
	cfg   config
	tr    *tracer
	churn bool
	size  fleetSize

	cells    []poolCell
	requests []pooledRequest
	known    [][]primed // [cell][candidate]
	fresh    *freshDims
	freshRNG *num.RNG
	// freshSent counts never-seen candidates sent since the fleet started.
	freshSent int
	// lastFresh holds the never-seen exchanges of the latest pass.
	lastFresh []freshExchange

	servers []*service.Server
	nodes   []*httptest.Server
	router  *service.Router
	front   *httptest.Server
	clients []*service.Client
	dir     string

	base, end *service.Statusz // router statusz after priming, after the last pass
	// tracedSimMS is the nodes' simulate-stage time during traced passes.
	tracedSimMS float64
	wrong       int
}

func newFleet(cfg config, tr *tracer, churn bool) *fleet {
	w := &fleet{cfg: cfg, tr: tr, churn: churn, size: fullFleetSize}
	if cfg.Smoke {
		w.size = smokeFleetSize
	}
	return w
}

// setup generates the pool and the operation list, starts the nodes, the
// router and the clients, and primes every pool key through the router.
func (w *fleet) setup() error {
	cells, err := genPool(w.cfg.Seed, w.size.Pool)
	if err != nil {
		return err
	}
	w.cells = cells
	w.requests = genRequests(w.cfg.Seed, cells, w.size.Requests)
	w.fresh = newFreshDims(w.cfg.Seed)
	w.freshRNG = num.NewRNG(w.cfg.Seed ^ 0xf7e5)
	w.freshSent = 0

	if w.churn {
		if err := os.MkdirAll(w.cfg.ScratchDir, 0o755); err != nil {
			return err
		}
		if w.dir, err = os.MkdirTemp(w.cfg.ScratchDir, "fleet-"); err != nil {
			return err
		}
	}
	ids := make([]string, fleetNodeCount)
	backends := make([]service.Backend, fleetNodeCount)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i)
		nodeCfg := service.Config{WorkersPerArch: w.cfg.Clients}
		if w.churn {
			nodeCfg.CacheDir = filepath.Join(w.dir, ids[i])
			nodeCfg.MaxResidentResults = churnResident
		}
		srv, err := service.NewServer(nodeCfg)
		if err != nil {
			return err
		}
		w.servers = append(w.servers, srv)
		handler := srv.Handler()
		if w.tr != nil {
			handler = timedHandler(handler, w.tr, "node.handler", "node.ingest", ids[i])
		}
		ts := httptest.NewServer(handler)
		w.nodes = append(w.nodes, ts)
		node := service.NewClient(ts.URL)
		backends[i] = node
		if w.tr != nil {
			backends[i] = &timedBackend{inner: node, node: ids[i], tr: w.tr}
		}
	}
	// Fixed ids fix ring placement from run to run; the prober and the
	// anti-entropy loop are off so that nothing but the clients' requests
	// reaches the nodes.
	rf := 1
	if w.churn {
		rf = 2
	}
	w.router, err = service.NewRouterBackends(ids, backends, service.RouterConfig{
		ReplicationFactor: rf, ProbeInterval: -1, AntiEntropyInterval: -1,
	})
	if err != nil {
		return err
	}
	front := w.router.Handler()
	if w.tr != nil {
		front = timedHandler(front, w.tr, "router.handler", "", "")
	}
	w.front = httptest.NewServer(front)
	w.clients = make([]*service.Client, w.cfg.Clients)
	for i := range w.clients {
		w.clients[i] = service.NewClient(w.front.URL)
		w.clients[i].HTTPClient = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   time.Minute,
		}
	}
	if err := w.prime(); err != nil {
		return err
	}
	if w.base, err = w.router.Statusz(context.Background()); err != nil {
		return err
	}
	return nil
}

// prime sends every pool candidate through the router once and keeps the
// statistics first computed for each key.
func (w *fleet) prime() error {
	w.known = make([][]primed, len(w.cells))
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ci := c; ci < len(w.cells); ci += len(w.clients) {
				cell := &w.cells[ci]
				w.known[ci] = make([]primed, len(cell.Cands))
				for lo := 0; lo < len(cell.Cands); lo += batchSize {
					hi := lo + batchSize
					if hi > len(cell.Cands) {
						hi = len(cell.Cands)
					}
					resp, err := w.clients[c].Simulate(context.Background(), &service.SimulateRequest{
						Arch: string(cell.Arch), Workload: cell.Spec, Candidates: cell.Cands[lo:hi]})
					if err != nil {
						errs[c] = fmt.Errorf("prime %s/%v: %w", cell.Arch, cell.Spec, err)
						return
					}
					for j, r := range resp.Results {
						if r.Err != "" || r.Stats == nil {
							errs[c] = fmt.Errorf("prime %s/%v candidate %d: %s", cell.Arch, cell.Spec, lo+j, r.Err)
							return
						}
						w.known[ci][lo+j] = primed{digest: statsDigest(r.Stats), total: r.Stats.Total}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// teardown stops clients, router and nodes and removes the stores. It is
// outside every timed window and outside setup_s: closing HTTP servers can
// wait seconds on connections that never carried a request.
func (w *fleet) teardown() {
	for _, cl := range w.clients {
		cl.HTTPClient.CloseIdleConnections()
	}
	if w.front != nil {
		w.front.Close()
	}
	if w.router != nil {
		w.router.Close()
	}
	for _, ts := range w.nodes {
		ts.Close()
	}
	for _, srv := range w.servers {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: close node:", err)
		}
	}
	if w.dir != "" {
		if err := os.RemoveAll(w.dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: remove stores:", err)
		}
	}
	w.clients, w.front, w.router, w.nodes, w.servers, w.dir = nil, nil, nil, nil, nil, ""
}

// isFresh reports whether slot j of a pass is a never-seen request: one in
// four on fleet_churn, none on fleet_hit.
func (w *fleet) isFresh(j int) bool { return w.churn && j%4 == 3 }

func (w *fleet) pass(p int) (*passResult, error) {
	n := len(w.requests)
	reqs := make([]*service.SimulateRequest, n)
	w.lastFresh = w.lastFresh[:0]
	for j := range reqs {
		reqs[j] = w.requests[j].Req
		if w.isFresh(j) {
			fr, err := w.fresh.request(w.freshRNG)
			if err != nil {
				return nil, err
			}
			reqs[j] = fr
			w.freshSent += len(fr.Candidates)
		}
	}
	res := &passResult{BatchMS: make([]float64, n), Attempted: n}
	responses := make([]*service.SimulateResponse, n)
	traced := w.tr.on()
	simMS := 0.0
	if traced {
		simMS = w.simulateMS()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for j := c; j < n; j += len(w.clients) {
				rctx, id := ctx, ""
				if traced {
					id = fmt.Sprintf("p%d-r%d", p, j)
					rctx = obs.WithTrace(ctx, id)
				}
				t0 := time.Now()
				resp, err := w.clients[c].Simulate(rctx, reqs[j])
				t1 := time.Now()
				res.BatchMS[j] = float64(t1.Sub(t0)) / 1e6
				if traced {
					w.tr.record("client.roundtrip", id, "", t0, t1)
				}
				if err == nil {
					responses[j] = resp
				}
			}
		}(c)
	}
	wg.Wait()
	res.WallS = time.Since(start).Seconds()
	if traced {
		w.tracedSimMS += w.simulateMS() - simMS
	}

	for j, resp := range responses {
		if resp == nil {
			res.Failed++
			continue
		}
		ok := true
		for k, r := range resp.Results {
			if r.Err != "" || r.Stats == nil {
				ok = false
				continue
			}
			res.Cands++
			res.Instr += r.Stats.Total
			if !w.isFresh(j) {
				// The cheap per-pass check; verify compares full digests.
				pr := w.requests[j]
				if r.Stats.Total != w.known[pr.Cell][pr.Idx[k]].total {
					w.wrong++
				}
			}
		}
		if !ok {
			res.Failed++
		}
		if w.isFresh(j) {
			w.lastFresh = append(w.lastFresh, freshExchange{req: reqs[j], resp: resp})
		}
	}
	return res, nil
}

// simulateMS sums the host time the nodes have spent in their simulate
// stage, from their public statusz.
func (w *fleet) simulateMS() float64 {
	total := 0.0
	for _, srv := range w.servers {
		st, err := srv.Statusz(context.Background())
		if err != nil {
			continue
		}
		for _, row := range st.Stages {
			if row.Metric == "simtune_stage_duration_seconds" && strings.Contains(row.Labels, `stage="simulate"`) {
				total += float64(row.Count) * row.MeanMS
			}
		}
	}
	return total
}

// verify replays the operation list once more and compares every statistic
// of every response with the value first computed for its key, compares a
// sample of the last pass's never-seen candidates with a direct sim.Run, and
// checks that the workload did the work it claims to isolate.
func (w *fleet) verify() (int, error) {
	ctx := context.Background()
	var err error
	if w.end, err = w.router.Statusz(ctx); err != nil {
		return 0, err
	}

	for j, pr := range w.requests {
		resp, err := w.clients[0].Simulate(ctx, pr.Req)
		if err != nil {
			return 0, fmt.Errorf("verify request %d: %w", j, err)
		}
		for k, r := range resp.Results {
			if r.Err != "" || r.Stats == nil || statsDigest(r.Stats) != w.known[pr.Cell][pr.Idx[k]].digest {
				fmt.Fprintf(w.cfg.Log, "wrong: request %d candidate %d differs from the value first computed for its key\n", j, k)
				w.wrong++
			}
		}
	}
	for j := 3; j < len(w.lastFresh); j += 4 {
		req, resp := w.lastFresh[j].req, w.lastFresh[j].resp
		arch, err := isa.ParseArch(req.Arch)
		if err != nil {
			return 0, err
		}
		factory, err := req.Workload.Factory()
		if err != nil {
			return 0, err
		}
		for k, c := range req.Candidates {
			b := runner.LocalBuilder{Arch: arch}.Build([]runner.MeasureInput{{Factory: factory, Steps: c.Steps}})[0]
			if b.Err != nil {
				return 0, b.Err
			}
			st, err := sim.Run(b.Prog, hw.Lookup(arch).Caches)
			if err != nil {
				return 0, err
			}
			if r := resp.Results[k]; r.Stats == nil || statsDigest(r.Stats) != statsDigest(st) {
				fmt.Fprintf(w.cfg.Log, "wrong: fresh request %d candidate %d differs from a direct sim.Run\n", j, k)
				w.wrong++
			}
		}
	}
	if w.cfg.Seed == pinSeed && !w.cfg.Smoke {
		want, err := loadPin(poolPinJSON)
		if err != nil {
			return 0, err
		}
		if d := want.diff(poolPin(w.cells)); d != "" {
			fmt.Fprintf(w.cfg.Log, "wrong: pool keys differ from testdata/pool_seed1.json: %s\n", d)
			w.wrong++
		}
	}
	return w.wrong, w.isolation()
}

// counters are the statusz deltas of the timed passes.
type counters struct {
	hits, misses, diskHits, evictions, replicaKeys, rerouted, rejected, duplicateSims float64
}

func (w *fleet) counters() counters {
	b, e := w.base, w.end
	pool := 0
	for _, c := range w.cells {
		pool += len(c.Keys)
	}
	return counters{
		hits:        float64(e.CacheHits - b.CacheHits),
		misses:      float64(e.CacheMisses - b.CacheMisses),
		diskHits:    float64(e.CacheDiskHits - b.CacheDiskHits),
		evictions:   float64(e.CacheEvictions - b.CacheEvictions),
		replicaKeys: float64(e.ReplicaKeys - b.ReplicaKeys),
		rerouted:    float64(e.Rerouted - b.Rerouted),
		rejected:    float64(e.RejectedCandidates - b.RejectedCandidates),
		// Every key is simulated exactly once over the fleet's life: the
		// pool while priming, each never-seen candidate when it arrives.
		duplicateSims: float64(e.CacheMisses) - float64(pool+w.freshSent),
	}
}

// isolation fails the run when the workload no longer exercises what it
// exists to exercise.
func (w *fleet) isolation() error {
	c := w.counters()
	served := c.hits + c.misses
	if c.duplicateSims != 0 {
		return fmt.Errorf("the fleet simulated %v candidates more than it has distinct keys", c.duplicateSims)
	}
	if !w.churn {
		if c.misses != 0 {
			return fmt.Errorf("fleet_hit ran %v simulations in its timed passes, want none", c.misses)
		}
		return nil
	}
	if w.cfg.Smoke {
		return nil // the smoke pool fits in RAM, so nothing is evicted
	}
	switch {
	case c.diskHits/served <= 0.2:
		return fmt.Errorf("fleet_churn served %.1f%% of candidates from disk, want more than 20%%", 100*c.diskHits/served)
	case c.evictions == 0:
		return fmt.Errorf("fleet_churn evicted nothing")
	case c.replicaKeys == 0:
		return fmt.Errorf("fleet_churn replicated nothing")
	}
	return nil
}
