package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/hw"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/service"
)

// microRequests is how many requests of the operation list the micro-timings
// run over, and microReps how often each is repeated.
const (
	microRequests = 16
	microReps     = 8
)

// layers derives the router and wire self times from the spans, the cache
// and replication counters from statusz, and micro-times the pieces of the
// hit path on the same request and response objects.
func (w *fleet) layers(in *layerInput, vals map[string]float64) error {
	sp := in.Spans
	if batches := float64(sp.count("router.handler")); batches > 0 {
		vals["service.client_wire_us_per_batch"] = num.Median(sp.selfUS["client.roundtrip"])
		vals["service.router_self_us_per_batch"] = num.Median(sp.selfUS["router.handler"])
		vals["service.dispatch_wire_us_per_subbatch"] = num.Median(sp.selfUS["router.dispatch"])
		vals["service.node_handler_us_per_subbatch"] = num.Median(sp.durUS["node.handler"])
		vals["service.subbatches_per_batch"] = float64(sp.count("router.dispatch")) / batches
		vals["service.ingest_us_per_batch"] = sum(sp.durUS["router.ingest"]) / batches
	}
	// The trace closes when the self times along one request — client wire,
	// router, and the dispatches it waits for — add up to the latency of the
	// untraced reference passes. Means add up where medians do not.
	var refBatches []float64
	for _, p := range in.RefPasses {
		refBatches = append(refBatches, p.BatchMS...)
	}
	if ref := num.Mean(refBatches); ref > 0 {
		dispatches := num.Mean(sp.durUS["router.handler"]) - num.Mean(sp.selfUS["router.handler"])
		along := (num.Mean(sp.selfUS["client.roundtrip"]) + num.Mean(sp.selfUS["router.handler"]) + dispatches) / 1e3
		vals["bench.trace_closure_pct"] = 100 * (along - ref) / ref
	}

	c := w.counters()
	if served := c.hits + c.misses; served > 0 {
		vals["service.hit_share"] = c.hits / served
		vals["service.disk_hit_share"] = c.diskHits / served
		vals["service.evictions_per_kcand"] = c.evictions / (served / 1e3)
	}
	vals["service.replica_keys"] = c.replicaKeys
	vals["service.duplicate_sims"] = c.duplicateSims
	vals["service.rerouted"] = c.rerouted
	vals["service.rejected_candidates"] = c.rejected
	if nodeMS := sum(sp.durUS["node.handler"]) / 1e3; nodeMS > 0 {
		vals["service.sim_share_of_node_time"] = w.tracedSimMS / nodeMS
		if w.churn && !w.cfg.Smoke && vals["service.sim_share_of_node_time"] >= 0.25 {
			return fmt.Errorf("simulation is %.0f%% of node handler time on fleet_churn, want under 25%%", 100*vals["service.sim_share_of_node_time"])
		}
	}
	return w.micro(vals)
}

// micro times the hit path's pieces in isolation: key hashing, the JSON
// codec, an in-process node and an in-process three-node router serving
// hits, and the store's put and get.
func (w *fleet) micro(vals map[string]float64) error {
	ctx := context.Background()
	reqs := w.requests
	if len(reqs) > microRequests {
		reqs = reqs[:microRequests]
	}
	cands := 0.0
	for _, pr := range reqs {
		cands += float64(len(pr.Req.Candidates))
	}
	perCand := func(d time.Duration, reps int) float64 {
		return float64(d.Nanoseconds()) / (cands * float64(reps))
	}

	t0 := time.Now()
	for rep := 0; rep < microReps; rep++ {
		for _, pr := range reqs {
			cell := &w.cells[pr.Cell]
			caches := hw.Lookup(cell.Arch).Caches
			for _, c := range pr.Req.Candidates {
				_ = service.CacheKey(cell.Arch, caches, cell.Spec, c.Steps)
			}
		}
	}
	vals["service.key_ns_per_cand"] = perCand(time.Since(t0), microReps)
	t0 = time.Now()
	for rep := 0; rep < microReps; rep++ {
		for _, pr := range reqs {
			for _, c := range pr.Req.Candidates {
				_ = schedule.Canonical(c.Steps)
			}
		}
	}
	vals["schedule.canonical_ns_per_cand"] = perCand(time.Since(t0), microReps)

	// One in-process node, primed with the sample, answers the responses
	// the codec timings use and then serves the same requests as hits.
	node, err := service.NewServer(service.Config{WorkersPerArch: w.cfg.Clients})
	if err != nil {
		return err
	}
	defer node.Close()
	resps := make([]*service.SimulateResponse, len(reqs))
	for i, pr := range reqs {
		if resps[i], err = node.Simulate(ctx, pr.Req); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for rep := 0; rep < microReps; rep++ {
		for _, pr := range reqs {
			if _, err := node.Simulate(ctx, pr.Req); err != nil {
				return err
			}
		}
	}
	vals["service.node_hit_ns_per_cand"] = perCand(time.Since(t0), microReps)

	ids := make([]string, fleetNodeCount)
	backends := make([]service.Backend, fleetNodeCount)
	for i := range ids {
		srv, err := service.NewServer(service.Config{WorkersPerArch: w.cfg.Clients})
		if err != nil {
			return err
		}
		defer srv.Close()
		ids[i], backends[i] = fmt.Sprintf("node-%d", i), srv
	}
	rt, err := service.NewRouterBackends(ids, backends, service.RouterConfig{
		ReplicationFactor: 1, ProbeInterval: -1, AntiEntropyInterval: -1})
	if err != nil {
		return err
	}
	defer rt.Close()
	for _, pr := range reqs {
		if _, err := rt.Simulate(ctx, pr.Req); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for rep := 0; rep < microReps; rep++ {
		for _, pr := range reqs {
			if _, err := rt.Simulate(ctx, pr.Req); err != nil {
				return err
			}
		}
	}
	vals["service.router_hit_ns_per_cand"] = perCand(time.Since(t0), microReps)

	// The codec, on the very requests and responses above.
	var encNS, decNS time.Duration
	wire := 0
	for rep := 0; rep < microReps; rep++ {
		for i, pr := range reqs {
			t0 = time.Now()
			reqJSON, err := json.Marshal(pr.Req)
			if err != nil {
				return err
			}
			respJSON, err := json.Marshal(resps[i])
			if err != nil {
				return err
			}
			t1 := time.Now()
			var req service.SimulateRequest
			var resp service.SimulateResponse
			if err := json.Unmarshal(reqJSON, &req); err != nil {
				return err
			}
			if err := json.Unmarshal(respJSON, &resp); err != nil {
				return err
			}
			encNS += t1.Sub(t0)
			decNS += time.Since(t1)
			if rep == 0 {
				wire += len(reqJSON) + len(respJSON)
			}
		}
	}
	vals["service.codec_encode_ns_per_cand"] = perCand(encNS, microReps)
	vals["service.codec_decode_ns_per_cand"] = perCand(decNS, microReps)
	vals["service.wire_bytes_per_cand"] = float64(wire) / cands

	// The store, on the same results.
	if err := os.MkdirAll(w.cfg.ScratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.cfg.ScratchDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := service.OpenStore(dir, service.StoreOptions{})
	if err != nil {
		return err
	}
	var keys []service.Key
	var results []service.Result
	for i, pr := range reqs {
		cell := &w.cells[pr.Cell]
		for k, idx := range pr.Idx {
			keys = append(keys, cell.Keys[idx])
			results = append(results, resps[i].Results[k])
		}
	}
	t0 = time.Now()
	for i := range keys {
		store.Put(keys[i], results[i])
	}
	if err := store.Flush(); err != nil {
		return err
	}
	putNS := time.Since(t0)
	stored := float64(store.Len())
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := store.Get(k); !ok {
			return fmt.Errorf("store lost key %x", k[:8])
		}
	}
	getNS := time.Since(t0)
	_, total := store.Bytes()
	if err := store.Close(); err != nil {
		return err
	}
	vals["service.store_put_us"] = float64(putNS.Microseconds()) / stored
	vals["service.store_get_us"] = float64(getNS.Microseconds()) / float64(len(keys))
	vals["service.store_bytes_per_key"] = float64(total) / stored
	return nil
}
