package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ansor"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/schedule"
	"repro/internal/te"
)

// chaosSeed makes every fault schedule in this file reproducible: the same
// seed drives the same PRNG draws, so a failure replays identically (the
// only residual nondeterminism is goroutine interleaving).
const chaosSeed = 20250807

// errForcedSweep labels the deliberate down→up cycles the test uses to make
// the router re-run its rejoin replay on a clean wire.
var errForcedSweep = errors.New("forced rejoin sweep (test)")

// chaosNode is one fleet member with everything a restart needs: a durable
// store directory, a fixed listen address (re-bound on restart so the
// router's ring identity is stable), and the server currently behind it.
type chaosNode struct {
	t    *testing.T
	dir  string
	addr string

	mu  sync.Mutex
	srv *Server
	// sigterm cancels the serve loop's context, which is all SIGTERM does to
	// `simtune serve`; served delivers what the loop returned.
	sigterm context.CancelFunc
	served  chan error
	// crashed makes the stop skip the drain: kill's process death.
	crashed atomic.Bool
}

func (n *chaosNode) config() Config {
	return Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2, CacheDir: n.dir,
	}
}

// start opens (or recovers) the node's store and serves it on its address.
func (n *chaosNode) start(wrap func(Config) Config) {
	n.t.Helper()
	cfg := n.config()
	if wrap != nil {
		cfg = wrap(cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		n.t.Fatal(err)
	}
	listenAddr := n.addr
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		n.t.Fatal(err)
	}
	// The production serve loop, in its listener-taking form: a restarted
	// node must come back on the address the router's ring knows it by.
	ctx, sigterm := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- serveListener(ctx, ln, srv.Handler(), func() error {
			if n.crashed.Load() {
				return nil
			}
			return srv.drain()
		})
	}()
	n.mu.Lock()
	n.srv, n.sigterm, n.served = srv, sigterm, served
	n.addr = ln.Addr().String()
	n.mu.Unlock()
}

func (n *chaosNode) server() *Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// drainStop is the SIGTERM path a real `simtune serve` takes, through the
// same code: drain the server (statusz flips to draining first, so a probing
// router rotates the node out), then stop the HTTP surface.
func (n *chaosNode) drainStop() {
	n.t.Helper()
	n.mu.Lock()
	sigterm, served := n.sigterm, n.served
	n.mu.Unlock()
	sigterm()
	if err := <-served; err != nil {
		n.t.Fatalf("stop %s: %v", n.addr, err)
	}
}

func (n *chaosNode) stop() {
	n.drainStop()
}

// TestChaosTuneThroughFaultyFleet is the chaos acceptance run: a full tune
// through a 3-node consistent-hash fleet while the wire drops, delays,
// truncates and 5xxes and two nodes' disks tear writes and fail fsyncs —
// followed by a SIGTERM-style drain/restart/rejoin of the third node. The
// standing invariants must hold throughout:
//
//   - results bit-identical to the in-process run (faults may slow the
//     tune, never corrupt it)
//   - every node's statusz reconciles: hits+misses+canceled == candidates,
//     rejections (none here) in their own ledger
//   - after recovery the corpus is whole: re-running the tune simulates
//     nothing anywhere (durable recovery + warm handoff cover the restart)
//   - the harness does not leak goroutines
func TestChaosTuneThroughFaultyFleet(t *testing.T) {
	const (
		group  = 1
		trials = 24
		seed   = 5
	)
	sentinel := newGoroutineSentinel()

	prof := hw.Lookup(isa.RISCV)
	baseOpt := core.ExecutionOptions{
		Scale: te.ScaleTiny, Group: group, Trials: trials, BatchSize: 8,
		NParallel: 4, Seed: seed,
	}
	inproc, err := core.ExecutionPhase(prof, stubPredictor{}, baseOpt)
	if err != nil {
		t.Fatal(err)
	}

	// The fleet: node 0 is the one we will drain and restart, so its disk
	// stays honest (a record lost to an injected write fault would live only
	// in RAM and a restart would legitimately re-simulate it — that is crash
	// semantics, not a bug, but it would blur the zero-duplicate assertion).
	// Nodes 1 and 2 keep running, so their RAM cache covers whatever their
	// faulty disks dropped.
	storeFaults := []*StoreFaults{
		nil,
		NewStoreFaults(chaosSeed+1, 0.10, 0.10),
		NewStoreFaults(chaosSeed+2, 0.10, 0.10),
	}
	nodes := make([]*chaosNode, 3)
	for i := range nodes {
		nodes[i] = &chaosNode{t: t, dir: t.TempDir()}
		sf := storeFaults[i]
		nodes[i].start(func(cfg Config) Config {
			if sf != nil {
				cfg.StoreWrapFile = sf.WrapFile
			}
			return cfg
		})
	}

	// The faulty wire sits between router and nodes — the hop that fans out
	// every batch. An inner transport of our own lets the leak check close
	// its idle connections deterministically.
	inner := &http.Transport{}
	ft := NewFaultTransport(inner, chaosSeed, TransportFaults{
		DropProb: 0.12, Err5xxProb: 0.12, TruncateProb: 0.08,
		DelayProb: 0.20, Delay: 2 * time.Millisecond,
	})
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = "http://" + n.addr
	}
	rt, err := NewRouter(RouterConfig{
		Nodes: urls, ProbeInterval: -1, // probed manually below, deterministically stoppable
		HTTPClient: &http.Client{Transport: ft, Timeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Manual probe loop: transport faults mark nodes down mid-tune; the
	// probe brings them back (running the warm-handoff replay on every
	// down→up transition, faults and all).
	probeCtx, stopProbe := context.WithCancel(context.Background())
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-probeCtx.Done():
				return
			case <-time.After(20 * time.Millisecond):
				rt.probeOnce(probeCtx)
			}
		}
	}()

	tune := func() []ansor.Record {
		opt := baseOpt
		opt.Runner = &ServiceRunner{
			Backend:  rt,
			Arch:     isa.RISCV,
			Workload: ConvGroupSpec(te.ScaleTiny, group),
			NPar:     4,
			Retries:  20, RetryBackoff: 5 * time.Millisecond, RetryBackoffMax: 80 * time.Millisecond,
		}
		opt.Builder = NopBuilder{}
		recs, err := core.ExecutionPhase(prof, stubPredictor{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	assertBitIdentical := func(label string, recs []ansor.Record) {
		t.Helper()
		if len(recs) != len(inproc) {
			t.Fatalf("%s: %d records, in-process %d", label, len(recs), len(inproc))
		}
		for i, r := range inproc {
			if recs[i].Err != nil {
				t.Fatalf("%s: record %d failed: %v", label, i, recs[i].Err)
			}
			if schedule.Fingerprint(r.Steps) != schedule.Fingerprint(recs[i].Steps) {
				t.Fatalf("%s: record %d: search diverged", label, i)
			}
			got, want := normalized(recs[i].Stats), normalized(r.Stats)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: record %d: stats not bit-identical:\n got %+v\nwant %+v", label, i, got, want)
			}
			if recs[i].Score != r.Score {
				t.Fatalf("%s: record %d: score %v != %v", label, i, recs[i].Score, r.Score)
			}
		}
	}

	// Phase 1: tune through the storm.
	chaotic := tune()
	assertBitIdentical("chaos tune", chaotic)
	if ft.Drops.Load()+ft.Errs.Load()+ft.Truncations.Load() == 0 {
		t.Fatal("the chaos run injected no transport faults — nothing was tested")
	}

	// Clear weather and let the fleet settle. The probe loop has done its
	// job (nodes downed by transport faults came back mid-tune); stop it so
	// the recovery phases below are driven by deterministic probeOnce calls.
	stopProbe()
	probeWG.Wait()
	ft.SetFaults(TransportFaults{})
	for _, sf := range storeFaults {
		if sf != nil {
			sf.Disable()
		}
	}
	waitFor(t, "the fleet to settle after the storm", func() bool {
		rt.probeOnce(context.Background())
		for _, n := range rt.nodes {
			if !n.up.Load() {
				return false
			}
		}
		return true
	})
	// A mid-storm rejoin replay ran over the faulty wire, where a
	// struggling peer's keys are (by design) left behind for later. "Later"
	// is now: force one clean-wire down→up cycle per node, one node at a
	// time, so every key drained to a successor during the storm is back on
	// its owner before the restart phase measures duplicates.
	for i := range rt.nodes {
		rt.nodes[i].markDown(errForcedSweep)
		waitFor(t, "the forced rejoin sweep", func() bool {
			rt.probeOnce(context.Background())
			return rt.nodes[i].up.Load()
		})
	}

	statuszReconciles := func(label string) {
		t.Helper()
		for i, n := range nodes {
			st, err := n.server().Statusz(context.Background())
			if err != nil {
				t.Fatalf("%s: node %d statusz: %v", label, i, err)
			}
			if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
				t.Fatalf("%s: node %d does not reconcile: %d+%d+%d != %d",
					label, i, st.CacheHits, st.CacheMisses, st.CacheCanceled, st.Candidates)
			}
		}
	}
	statuszReconciles("after chaos tune")

	// Phase 2: SIGTERM-style rolling restart of node 0 — drain (router
	// rotates it out on the draining flag), stop, recover from the segment
	// log, rejoin (handoff replays whatever it missed).
	nodes[0].drainStop()
	rt.probeOnce(context.Background())
	if rt.nodes[0].up.Load() {
		t.Fatal("drained node still in rotation")
	}
	nodes[0].start(nil)
	waitFor(t, "node 0 to rejoin after restart", func() bool {
		rt.probeOnce(context.Background())
		return rt.nodes[0].up.Load()
	})

	fleetSimulated := func() uint64 {
		var total uint64
		for _, n := range nodes {
			st, err := n.server().Statusz(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range st.Shards {
				total += sh.Simulated
			}
		}
		return total
	}

	// Phase 3: recovery re-run on a clean wire. The whole corpus must
	// already be in the fleet — durable recovery plus handoff mean not one
	// candidate is simulated again, anywhere.
	before := fleetSimulated()
	rerun := tune()
	assertBitIdentical("recovery re-run", rerun)
	if after := fleetSimulated(); after != before {
		t.Fatalf("recovery re-run re-simulated %d candidates — the corpus had holes", after-before)
	}
	statuszReconciles("after recovery re-run")

	// Teardown, then the leak check: everything the harness started —
	// router, HTTP servers, stores, pooled connections — must unwind.
	rt.Close()
	for _, n := range nodes {
		n.stop()
		if err := n.server().Close(); err != nil {
			t.Errorf("close %s: %v", n.addr, err)
		}
	}
	inner.CloseIdleConnections()
	if err := sentinel.waitSettled(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestChaosStoreFaultsAreSurvivable isolates the disk half of the harness:
// a store whose segment appends tear and whose fsyncs fail must keep
// serving — every failed append merely falls back to re-simulation after a
// restart, and a reopened store must recover exactly the records whose
// writes succeeded, skipping torn tails without error.
func TestChaosStoreFaultsAreSurvivable(t *testing.T) {
	dir := t.TempDir()
	faults := NewStoreFaults(chaosSeed, 0.5, 0.5)
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2,
		CacheDir: dir, StoreWrapFile: faults.WrapFile,
	})
	req := &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 2),
		Candidates: tinyCandidates(t, 2, 12),
	}
	resp, err := srv.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("store faults must never fail a batch: %v", err)
	}
	for i, r := range resp.Results {
		if r.Stats == nil {
			t.Fatalf("candidate %d unserved under store faults: %+v", i, r)
		}
	}
	_ = srv.Close() // may report an injected fsync error; the files are what matter
	// Appends are asynchronous: only Close, which flushes the writer, makes
	// the count final (checked before it, a fast batch beat the writer to
	// the check about one run in 240).
	if faults.Writes.Load() == 0 {
		t.Fatal("no write faults injected — nothing was tested")
	}

	// Reopen without faults: the store must come back with the surviving
	// records and the server must answer the identical batch, part cache
	// (recovered records), part re-simulation (torn ones) — bit-identical
	// either way.
	restarted := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2, CacheDir: dir,
	})
	defer restarted.Close()
	resp2, err := restarted.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("restarted server: %v", err)
	}
	for i := range resp.Results {
		got, want := normalized(resp2.Results[i].Stats), normalized(resp.Results[i].Stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("candidate %d: recovery changed the result:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// kill is the permanent-loss path: no drain, no handoff — the HTTP surface
// and the server die mid-flight and the node's disk is destroyed. Nothing of
// the node survives; whatever the fleet still serves of its range comes from
// replicas.
func (n *chaosNode) kill() {
	n.t.Helper()
	n.crashed.Store(true) // no drain: in-flight requests are aborted, not finished
	n.drainStop()
	n.server().Close()
	if err := os.RemoveAll(n.dir); err != nil {
		n.t.Fatal(err)
	}
}

// TestChaosPermanentNodeLossServesFromReplica is the replication acceptance
// run: a 3-node durable fleet at the default ReplicationFactor (2) tunes a
// corpus, then one node is killed PERMANENTLY — process and disk both gone,
// no drain, no rejoin. The standing invariants:
//
//   - the re-run after the loss is bit-identical to the in-process baseline
//     and simulates NOTHING: the dead node's range is served from the
//     write-through replicas on its successors, at hit rate
//   - anti-entropy then heals the survivors back to ReplicationFactor
//     copies of every key, and converges (a settled round moves zero)
//   - every surviving node's statusz still reconciles
//   - the harness does not leak goroutines
func TestChaosPermanentNodeLossServesFromReplica(t *testing.T) {
	const (
		group  = 1
		trials = 24
		seed   = 5
	)
	sentinel := newGoroutineSentinel()

	prof := hw.Lookup(isa.RISCV)
	baseOpt := core.ExecutionOptions{
		Scale: te.ScaleTiny, Group: group, Trials: trials, BatchSize: 8,
		NParallel: 4, Seed: seed,
	}
	inproc, err := core.ExecutionPhase(prof, stubPredictor{}, baseOpt)
	if err != nil {
		t.Fatal(err)
	}

	// All three disks honest: the zero-duplicate assertion needs every
	// computed result durably on its replicas before the loss.
	nodes := make([]*chaosNode, 3)
	for i := range nodes {
		nodes[i] = &chaosNode{t: t, dir: t.TempDir()}
		nodes[i].start(nil)
	}
	inner := &http.Transport{}
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = "http://" + n.addr
	}
	rt, err := NewRouter(RouterConfig{
		Nodes: urls, ProbeInterval: -1, AntiEntropyInterval: -1, // both driven manually
		HTTPClient: &http.Client{Transport: inner, Timeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	tune := func() []ansor.Record {
		opt := baseOpt
		opt.Runner = &ServiceRunner{
			Backend:  rt,
			Arch:     isa.RISCV,
			Workload: ConvGroupSpec(te.ScaleTiny, group),
			NPar:     4,
			Retries:  20, RetryBackoff: 5 * time.Millisecond, RetryBackoffMax: 80 * time.Millisecond,
		}
		opt.Builder = NopBuilder{}
		recs, err := core.ExecutionPhase(prof, stubPredictor{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	assertBitIdentical := func(label string, recs []ansor.Record) {
		t.Helper()
		if len(recs) != len(inproc) {
			t.Fatalf("%s: %d records, in-process %d", label, len(recs), len(inproc))
		}
		for i, r := range inproc {
			if recs[i].Err != nil {
				t.Fatalf("%s: record %d failed: %v", label, i, recs[i].Err)
			}
			if schedule.Fingerprint(r.Steps) != schedule.Fingerprint(recs[i].Steps) {
				t.Fatalf("%s: record %d: search diverged", label, i)
			}
			got, want := normalized(recs[i].Stats), normalized(r.Stats)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: record %d: stats not bit-identical:\n got %+v\nwant %+v", label, i, got, want)
			}
		}
	}

	// Phase 1: tune through the healthy fleet. Write-through replication is
	// on by default, so by the time this returns every fresh result is on
	// its owner AND its ring successor.
	assertBitIdentical("healthy tune", tune())
	if rt.replicaKeys.Load() == 0 {
		t.Fatal("healthy tune replicated nothing — write-through is not running")
	}
	for rt.antiEntropyOnce(context.Background()) != 0 {
	}

	// Phase 2: node 0 dies for good — process and disk. The probe notices;
	// the node never returns.
	nodes[0].kill()
	waitFor(t, "the dead node to leave rotation", func() bool {
		rt.probeOnce(context.Background())
		return !rt.nodes[0].up.Load()
	})

	survivorSimulated := func() uint64 {
		var total uint64
		for _, n := range nodes[1:] {
			st, err := n.server().Statusz(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range st.Shards {
				total += sh.Simulated
			}
		}
		return total
	}

	// Phase 3: the re-run must not notice the loss — the dead node's range
	// serves from its successors' replicas at hit rate, zero re-simulation.
	before := survivorSimulated()
	assertBitIdentical("re-run after permanent loss", tune())
	if after := survivorSimulated(); after != before {
		t.Fatalf("permanent loss re-simulated %d candidates — replicas had holes", after-before)
	}
	for i, n := range nodes[1:] {
		st, err := n.server().Statusz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
			t.Fatalf("survivor %d does not reconcile: %d+%d+%d != %d",
				i+1, st.CacheHits, st.CacheMisses, st.CacheCanceled, st.Candidates)
		}
	}

	// Phase 4: anti-entropy heals the fleet back to RF copies per key among
	// the survivors — the dead node's replica duty shifted down the ring —
	// and reaches a fixed point.
	healed := 0
	for {
		moved := rt.antiEntropyOnce(context.Background())
		if moved == 0 {
			break
		}
		healed += moved
	}
	if healed == 0 {
		t.Fatal("anti-entropy moved nothing — the dead node's range was not re-replicated")
	}
	if rt.antiEntropyOnce(context.Background()) != 0 {
		t.Fatal("anti-entropy did not hold its fixed point")
	}

	// Both survivors now hold the whole corpus: every key readable on each.
	for i, n := range nodes[1:] {
		keys, err := n.server().Keys(context.Background(), 0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(inproc) {
			t.Fatalf("survivor %d holds %d keys after healing, want the full corpus %d",
				i+1, len(keys), len(inproc))
		}
	}

	rt.Close()
	for _, n := range nodes[1:] {
		n.stop()
		if err := n.server().Close(); err != nil {
			t.Errorf("close %s: %v", n.addr, err)
		}
	}
	inner.CloseIdleConnections()
	if err := sentinel.waitSettled(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
