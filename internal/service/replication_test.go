package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/te"
)

// replicatedRouter builds a router over n in-process servers with the
// default replication factor (2) and the anti-entropy timer disabled —
// tests drive antiEntropyOnce explicitly.
func replicatedRouter(t testing.TB, n int, cfgs ...func(i int) Config) (*Router, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	ids := make([]string, n)
	backends := make([]Backend, n)
	for i := range servers {
		cfg := Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2}
		if len(cfgs) > 0 {
			cfg = cfgs[0](i)
		}
		servers[i] = mustServer(t, cfg)
		s := servers[i]
		t.Cleanup(func() { s.Close() })
		ids[i] = "node-" + string(rune('a'+i))
		backends[i] = servers[i]
	}
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1, AntiEntropyInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, servers
}

// holders counts which servers can serve key k (RAM or disk).
func holders(t *testing.T, servers []*Server, k Key) []int {
	t.Helper()
	var out []int
	for i, s := range servers {
		keys, err := s.Keys(context.Background(), 0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, have := range keys {
			if have == k {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// TestWriteThroughReplicationOnMissFill: by the time a batch returns, every
// freshly computed result lives on ReplicationFactor nodes — the owner that
// computed it and its live ring successor — and the copies cost zero extra
// simulation. Cache hits are never re-replicated.
func TestWriteThroughReplicationOnMissFill(t *testing.T) {
	const group, n = 1, 12
	rt, servers := replicatedRouter(t, 3)
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	if _, err := rt.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	caches := hw.Lookup(isa.RISCV).Caches
	for i, c := range req.Candidates {
		k := CacheKey(isa.RISCV, caches, req.Workload, c.Steps)
		hold := holders(t, servers, k)
		if len(hold) != 2 {
			t.Fatalf("candidate %d held by %d nodes %v, want exactly RF=2", i, len(hold), hold)
		}
		// The copies sit exactly on the replica set the ring prescribes.
		want := rt.liveReplicas(k)
		for _, j := range want {
			found := false
			for _, h := range hold {
				if h == j {
					found = true
				}
			}
			if !found {
				t.Fatalf("candidate %d: replica %d (of %v) lacks the key (holders %v)", i, j, want, hold)
			}
		}
	}
	var simulated uint64
	for _, s := range servers {
		simulated += s.shards[isa.RISCV].simulated.Load()
	}
	if simulated != n {
		t.Fatalf("fleet simulated %d for %d unique candidates — replication cost simulations", simulated, n)
	}
	if got := rt.replicaKeys.Load(); got != n {
		t.Fatalf("router replica_keys = %d, want %d (one copy per fresh result)", got, n)
	}

	// A warm re-run is all hits and moves no further copies.
	warm, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d missed on the warm run", i)
		}
	}
	if got := rt.replicaKeys.Load(); got != n {
		t.Fatalf("warm run re-replicated: replica_keys = %d, want %d", got, n)
	}

	// Statusz carries the ledgers and the per-node reconciliation holds.
	agg, err := rt.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if agg.ReplicaKeys != n {
		t.Fatalf("agg replica_keys = %d, want %d", agg.ReplicaKeys, n)
	}
	for _, s := range servers {
		st, _ := s.Statusz(context.Background())
		if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
			t.Fatalf("replication broke a node's candidate reconciliation: %+v", st)
		}
	}
}

// TestAntiEntropyConverges: results that bypassed the router (here: computed
// against one node directly) are spread to their full replica sets by
// anti-entropy rounds, and the rounds reach a fixed point — a converged
// fleet moves zero entries.
func TestAntiEntropyConverges(t *testing.T) {
	const group, n = 1, 12
	rt, servers := replicatedRouter(t, 3)
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	// Seed node 0 directly: the router never saw these results, so only
	// node 0 holds them — exactly the gap anti-entropy exists to close.
	if _, err := servers[0].Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	moved := rt.antiEntropyOnce(context.Background())
	if moved == 0 {
		t.Fatal("anti-entropy moved nothing over an under-replicated fleet")
	}
	if again := rt.antiEntropyOnce(context.Background()); again != 0 {
		t.Fatalf("anti-entropy did not converge: second round moved %d", again)
	}
	if got := rt.aeRounds.Load(); got != 2 {
		t.Fatalf("antientropy_rounds = %d, want 2", got)
	}
	if got := rt.replicaKeys.Load(); got != uint64(moved) {
		t.Fatalf("replica_keys = %d, want the %d anti-entropy moves", got, moved)
	}

	caches := hw.Lookup(isa.RISCV).Caches
	for i, c := range req.Candidates {
		k := CacheKey(isa.RISCV, caches, req.Workload, c.Steps)
		hold := holders(t, servers, k)
		for _, j := range rt.liveReplicas(k) {
			found := false
			for _, h := range hold {
				if h == j {
					found = true
				}
			}
			if !found {
				t.Fatalf("candidate %d: replica %d still lacks the key after convergence (holders %v)", i, j, hold)
			}
		}
	}

	// Repair traffic never counts as served candidates anywhere.
	for i, s := range servers {
		st, _ := s.Statusz(context.Background())
		if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
			t.Fatalf("node %d reconciliation broken by anti-entropy: %+v", i, st)
		}
	}
}

// TestAntiEntropyHealsAroundPermanentLoss: when a node is permanently gone,
// the replica walk extends past it — one anti-entropy round re-establishes
// RF copies among the survivors, so the fleet heals back to tolerating the
// NEXT failure too.
func TestAntiEntropyHealsAroundPermanentLoss(t *testing.T) {
	const group, n = 1, 16
	rt, servers := replicatedRouter(t, 3)
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	if _, err := rt.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	for rt.antiEntropyOnce(context.Background()) != 0 {
	}

	// Node 0 is gone for good: its RAM and any copies it held are lost.
	rt.nodes[0].markDown(errors.New("node permanently lost (test)"))
	servers[0].cache.mu.Lock()
	servers[0].cache.entries = make(map[Key]*cacheEntry)
	servers[0].cache.t1.init()
	servers[0].cache.t2.init()
	servers[0].cache.b1.init()
	servers[0].cache.b2.init()
	servers[0].cache.mu.Unlock()

	// Heal: replicas recompute against the surviving membership.
	if moved := rt.antiEntropyOnce(context.Background()); moved == 0 {
		// Every key may already sit on both survivors via write-through;
		// that is convergence, not failure.
		t.Log("fleet already fully replicated among survivors")
	}
	for rt.antiEntropyOnce(context.Background()) != 0 {
	}

	caches := hw.Lookup(isa.RISCV).Caches
	for i, c := range req.Candidates {
		k := CacheKey(isa.RISCV, caches, req.Workload, c.Steps)
		reps := rt.liveReplicas(k)
		if len(reps) != 2 {
			t.Fatalf("candidate %d: %d live replicas after one loss, want 2", i, len(reps))
		}
		hold := holders(t, servers[1:], k) // survivors only (offset by one)
		if len(hold) != 2 {
			t.Fatalf("candidate %d: held by %d survivors, want 2 (healed RF)", i, len(hold))
		}
	}

	// And the corpus serves at hit rate: zero new simulation on re-run.
	var before uint64
	for _, s := range servers[1:] {
		before += s.shards[isa.RISCV].simulated.Load()
	}
	warm, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d missed after permanent loss — replica did not cover it", i)
		}
	}
	var after uint64
	for _, s := range servers[1:] {
		after += s.shards[isa.RISCV].simulated.Load()
	}
	if before != after {
		t.Fatalf("permanent loss cost %d duplicate simulations", after-before)
	}
}

// TestReplicationDisabledByConfig pins the gates: RF=1 turns write-through
// off, and a negative RF is a construction error.
func TestReplicationDisabledByConfig(t *testing.T) {
	if _, err := NewRouterBackends([]string{"a"}, []Backend{Local()},
		RouterConfig{ProbeInterval: -1, ReplicationFactor: -1}); err == nil {
		t.Fatal("negative ReplicationFactor must be rejected")
	}
	for name, cfg := range map[string]RouterConfig{
		"rf1": {ProbeInterval: -1, ReplicationFactor: 1},
	} {
		servers := []*Server{
			mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2}),
			mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2}),
		}
		rt, err := NewRouterBackends([]string{"a", "b"}, []Backend{servers[0], servers[1]}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		req := &SimulateRequest{
			Arch:       "riscv",
			Workload:   ConvGroupSpec(te.ScaleTiny, 1),
			Candidates: tinyCandidates(t, 1, 8),
		}
		if _, err := rt.Simulate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if got := rt.replicaKeys.Load(); got != 0 {
			t.Fatalf("%s: replicated %d keys with replication off", name, got)
		}
		if moved := rt.antiEntropyOnce(context.Background()); moved != 0 {
			t.Fatalf("%s: anti-entropy moved %d with replication off", name, moved)
		}
		if entries := servers[0].cache.len() + servers[1].cache.len(); entries != 8 {
			t.Fatalf("%s: fleet holds %d entries for 8 keys, want single copies", name, entries)
		}
		rt.Close()
		servers[0].Close()
		servers[1].Close()
	}
}
