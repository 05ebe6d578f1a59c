package service

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/isa"
	"repro/internal/te"
)

// arcResult builds a distinguishable payload for direct cache tests.
func arcResult(i int) Result { return testResult(i) }

// residentList reports which ARC list a key sits on (-1 when untracked).
func residentList(c *resultCache, k Key) int8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		return e.list
	}
	return -1
}

// TestARCBoundedResidency: the capacity argument is a real bound — the
// resident set never exceeds it no matter how many distinct keys flow
// through, evictions are counted, and a hot set that proves frequency (T2)
// survives a long one-shot scan (the scan churns T1 only).
func TestARCBoundedResidency(t *testing.T) {
	const cap = 8
	c := newResultCache(cap, nil)
	get := func(i int) {
		t.Helper()
		_, _, err := c.do(context.Background(), testKey(i), new(candTimings), func() (Result, error) {
			return arcResult(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Establish a hot set and touch it twice: second access promotes to T2.
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			get(i)
		}
	}
	for i := 0; i < 4; i++ {
		if l := residentList(c, testKey(i)); l != listT2 {
			t.Fatalf("hot key %d on list %d after two touches, want T2", i, l)
		}
	}

	// A long one-shot scan: the bound must hold throughout and the hot set
	// must survive (scan keys live and die in T1).
	for i := 100; i < 300; i++ {
		get(i)
		if n := c.len(); n > cap {
			t.Fatalf("resident set grew to %d, capacity %d", n, cap)
		}
	}
	for i := 0; i < 4; i++ {
		if l := residentList(c, testKey(i)); l != listT2 {
			t.Fatalf("scan evicted hot key %d (list %d) — no scan resistance", i, l)
		}
	}
	if ev := c.evictions.Load(); ev == 0 {
		t.Fatal("a 200-key scan through an 8-entry cache evicted nothing")
	}
	// Eviction is a parallel ledger: every do() above was a miss or a hit,
	// and the reconciliation must not see evictions.
	if got, want := c.hits.Load()+c.misses.Load()+c.canceled.Load(), uint64(2*4+200); got != want {
		t.Fatalf("hits+misses+canceled = %d, want %d servings", got, want)
	}
}

// TestARCGhostHitAdapts: re-touching a key whose value was evicted (a B1
// ghost) must land it in T2 and grow the recency target p — the adaptive
// half of ARC.
func TestARCGhostHitAdapts(t *testing.T) {
	const cap = 4
	c := newResultCache(cap, nil)
	get := func(i int) {
		_, _, _ = c.do(context.Background(), testKey(i), new(candTimings), func() (Result, error) {
			return arcResult(i), nil
		})
	}
	get(0)
	get(0) // key 0 proves frequency: T2 occupancy makes eviction go via replace()
	for i := 1; i <= cap; i++ {
		get(i) // fills T1; the overflow demotes T1's LRU (key 1) to a B1 ghost
	}
	if l := residentList(c, testKey(1)); l != listB1 {
		t.Fatalf("key 1 on list %d after eviction, want B1 ghost", l)
	}
	// Memory-only: the value is gone, so the refill recomputes — and the
	// ghost hit must steer the insert into T2 and raise p.
	var recomputed bool
	_, hit, err := c.do(context.Background(), testKey(1), new(candTimings), func() (Result, error) {
		recomputed = true
		return arcResult(1), nil
	})
	if err != nil || hit || !recomputed {
		t.Fatalf("ghost refill: hit=%v recomputed=%v err=%v, want miss+recompute", hit, recomputed, err)
	}
	if l := residentList(c, testKey(1)); l != listT2 {
		t.Fatalf("ghost hit landed key 1 on list %d, want T2", l)
	}
	c.mu.Lock()
	p := c.p
	c.mu.Unlock()
	if p == 0 {
		t.Fatal("B1 ghost hit did not grow the adaptive target p")
	}
}

// TestEvictionSingleflightRace is the -race pin for the tentpole's core
// invariant: with a resident bound far below the keyspace and a durable
// layer beneath it, concurrent callers hammering overlapping keys still
// compute each key EXACTLY once — eviction demotes values to disk, never
// back to "recompute", and the eviction bookkeeping never races the
// singleflight accounting.
func TestEvictionSingleflightRace(t *testing.T) {
	dir := t.TempDir()
	disk, _ := openTestStore(t, dir, StoreOptions{})
	defer disk.Close()
	const (
		capacity   = 2
		keys       = 32
		goroutines = 8
		rounds     = 6
	)
	c := newResultCache(capacity, disk)
	var computes [keys]atomic.Uint64
	var calls atomic.Uint64

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				for _, i := range rng.Perm(keys) {
					i := i
					res, _, err := c.do(context.Background(), testKey(i), new(candTimings), func() (Result, error) {
						computes[i].Add(1)
						return arcResult(i), nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					if res.Stats == nil || res.Stats.Total != uint64(1000+i) {
						t.Errorf("key %d served wrong value: %+v", i, res)
						return
					}
					calls.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	for i := 0; i < keys; i++ {
		if n := computes[i].Load(); n != 1 {
			t.Fatalf("key %d computed %d times under eviction pressure, want exactly 1", i, n)
		}
	}
	if n := c.len(); n > capacity {
		t.Fatalf("resident set %d exceeds capacity %d", n, capacity)
	}
	if got, want := c.hits.Load()+c.misses.Load()+c.canceled.Load(), calls.Load(); got != want {
		t.Fatalf("hits+misses+canceled = %d, want %d do() calls", got, want)
	}
	if ev := c.evictions.Load(); ev == 0 {
		t.Fatalf("%d keys through a %d-entry cache evicted nothing", keys, capacity)
	}
}

// TestStaleDiskMissCannotLeadTwice replays, one step at a time, the
// interleaving behind "key N computed 2 times": caller A misses in the
// durable store; before A goes on, caller B wants the same key. While the
// probe sat outside the flight, B could find nothing resident and nothing in
// flight, compute and store the key, and have the entry evicted — and A,
// trusting its now stale miss, computed it again. With the probe inside the
// flight, B can only wait for A.
func TestStaleDiskMissCannotLeadTwice(t *testing.T) {
	disk, _ := openTestStore(t, t.TempDir(), StoreOptions{})
	defer disk.Close()
	c := newResultCache(1, disk)
	var computes [2]atomic.Uint64
	do := func(i int) (bool, error) {
		_, hit, err := c.do(context.Background(), testKey(i), new(candTimings), func() (Result, error) {
			computes[i].Add(1)
			return arcResult(i), nil
		})
		return hit, err
	}
	type outcome struct {
		hit bool
		err error
	}
	bDone, bWaiting := make(chan outcome, 1), make(chan struct{})
	var held atomic.Bool
	c.testHook = func(point int) {
		switch {
		case point == hookWaiting:
			close(bWaiting)
		case held.CompareAndSwap(false, true): // A's probe; later ones pass through
			go func() {
				hit, err := do(0)
				bDone <- outcome{hit, err}
			}()
			select {
			case <-bWaiting:
			case b := <-bDone:
				// B ran beside A's stale miss. Push its entry out of the
				// one-entry cache, as eviction pressure would, before A
				// looks again.
				bDone <- b
				if _, err := do(1); err != nil {
					t.Error(err)
				}
			}
		}
	}
	aHit, aErr := do(0)
	b := <-bDone
	if n := computes[0].Load(); n != 1 {
		t.Fatalf("key 0 computed %d times, want exactly 1", n)
	}
	if aErr != nil || aHit || b.err != nil || !b.hit {
		t.Fatalf("A: hit=%v err=%v, B: hit=%v err=%v; want A to compute and B to be served A's result",
			aHit, aErr, b.hit, b.err)
	}
	// And once the entry is evicted, the durable record serves it.
	if _, err := do(1); err != nil {
		t.Fatal(err)
	}
	if hit, err := do(0); err != nil || !hit || computes[0].Load() != 1 || c.diskHits.Load() != 1 {
		t.Fatalf("after eviction: hit=%v err=%v computes=%d disk hits=%d, want one disk hit and no computation",
			hit, err, computes[0].Load(), c.diskHits.Load())
	}
}

// TestFetchReadsThroughEviction: the replication surface (fetch, keys) must
// see a bounded node's full corpus — resident AND evicted-to-disk — or
// handoff/anti-entropy would silently under-replicate bounded nodes.
func TestFetchReadsThroughEviction(t *testing.T) {
	dir := t.TempDir()
	disk, _ := openTestStore(t, dir, StoreOptions{})
	defer disk.Close()
	const n = 10
	c := newResultCache(2, disk)
	for i := 0; i < n; i++ {
		if _, _, err := c.do(context.Background(), testKey(i), new(candTimings), func() (Result, error) {
			return arcResult(i), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.len(); got > 2 {
		t.Fatalf("resident set %d exceeds capacity 2", got)
	}
	all := make([]Key, n)
	for i := range all {
		all[i] = testKey(i)
	}
	got := c.fetch(all)
	if len(got) != n {
		t.Fatalf("fetch returned %d of %d keys — evicted keys did not read through", len(got), n)
	}
	for _, e := range got {
		want := arcResult(int(e.Key[0]))
		if e.Result.Stats == nil || e.Result.Stats.Total != want.Stats.Total {
			t.Fatalf("fetch served wrong value for key %d: %+v", e.Key[0], e.Result)
		}
	}
	if keys := c.keysInRange(0, ^uint64(0)); len(keys) != n {
		t.Fatalf("keysInRange lists %d of %d keys", len(keys), n)
	}
}

// TestMaxResidentConfig wires the bound through the public Config: negative
// is a configuration error; a small bound over a durable store serves a
// corpus far larger than RAM at full hit rate on re-submission, with
// statusz reporting residency, evictions, and the unchanged candidate
// reconciliation.
func TestMaxResidentConfig(t *testing.T) {
	if _, err := NewServer(Config{Archs: []isa.Arch{isa.RISCV}, MaxResidentResults: -1}); err == nil {
		t.Fatal("MaxResidentResults < 0 must be rejected")
	}

	const bound, n = 4, 16
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2,
		MaxResidentResults: bound, CacheDir: t.TempDir(),
	})
	defer srv.Close()
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, 1),
		Candidates: tinyCandidates(t, 1, n),
	}
	if _, err := srv.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.Statusz(context.Background())
	if st.CacheEntries > bound || st.CacheResident != st.CacheEntries {
		t.Fatalf("resident %d/%d exceeds bound %d", st.CacheResident, st.CacheEntries, bound)
	}
	if st.CacheEvictions == 0 {
		t.Fatalf("%d keys through a %d-resident node evicted nothing", n, bound)
	}
	if st.CacheDiskEntries != n {
		t.Fatalf("durable layer holds %d of %d results", st.CacheDiskEntries, n)
	}
	if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
		t.Fatalf("eviction broke the candidate reconciliation: %+v", st)
	}

	// Re-submission: the whole corpus — 4x the resident bound — must be
	// absorbed with zero new simulation (the evicted share from disk).
	sim0 := srv.shards[isa.RISCV].simulated.Load()
	warm, err := srv.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d missed on re-submission through the bound", i)
		}
	}
	if got := srv.shards[isa.RISCV].simulated.Load(); got != sim0 {
		t.Fatalf("bounded node re-simulated %d candidates it already paid for", got-sim0)
	}
	st, _ = srv.Statusz(context.Background())
	if st.CacheDiskHits == 0 {
		t.Fatal("no disk hits — the evicted share was not served from the durable layer")
	}
	if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
		t.Fatalf("disk-hit path broke the candidate reconciliation: %+v", st)
	}
}
