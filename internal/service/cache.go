package service

import (
	"context"
	"crypto/sha256"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/schedule"
)

// Key is the content address of one simulation result: a sha256 over the
// architecture, its cache geometry, the workload signature and the canonical
// schedule-step encoding. Everything that determines the (deterministic)
// simulator statistics is in the hash; nothing else is.
type Key [sha256.Size]byte

// CacheKey computes the content address of a candidate. A batch computes
// the part of the preimage its candidates share once (keyPrefix) and hashes
// each candidate with candidateKey; this is the two in one call.
func CacheKey(arch isa.Arch, caches cache.HierarchyConfig, wl WorkloadSpec, steps []schedule.Step) Key {
	var scratch [192]byte
	return candidateKey(keyPrefix(scratch[:0], arch, caches, wl), steps)
}

// keyPrefix appends the part of a cache-key preimage that every candidate
// of one batch shares: the key-format version, the architecture, the four
// cache geometries and the workload signature. The geometry is hashed
// explicitly (not just the arch name) so a profile change in a future release
// cannot serve stale statistics for the old Table I parameters.
func keyPrefix(dst []byte, arch isa.Arch, caches cache.HierarchyConfig, wl WorkloadSpec) []byte {
	dst = append(dst, "simsvc:v1\x00"...)
	dst = append(dst, arch...)
	dst = append(dst, 0)
	for _, lv := range [...]*cache.Config{&caches.L1D, &caches.L1I, &caches.L2, &caches.L3} {
		dst = append(dst, lv.Name...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(lv.SizeBytes), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(lv.LineBytes), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(lv.Assoc), 10)
		dst = append(dst, 0)
	}
	dst = wl.appendSignature(dst)
	return append(dst, 0)
}

// candidateKey is the content address of one candidate under a batch's
// keyPrefix: sha256 over the prefix and the canonical step encoding.
func candidateKey(prefix []byte, steps []schedule.Step) Key {
	var scratch [512]byte
	b := append(scratch[:0], prefix...)
	return sha256.Sum256(schedule.AppendCanonical(b, steps))
}

// flight is one in-progress lookup of a key that is not resident — the
// durable-store probe and, when that misses, the computation — which other
// requests for the key wait on.
type flight struct {
	done chan struct{}
}

// Points of do a test can hold a caller at (resultCache.testHook).
const (
	hookWaiting = iota // about to wait on another caller's flight
	hookProbed         // leading a flight, durable-store probe done
)

// ARC list membership. T1/T2 entries are resident (hold a Result); B1/B2 are
// ghosts — the key is tracked for adaptation but the value was evicted and
// lives only in the durable store (or, on a memory-only cache, is gone and
// costs one simulation to refill).
const (
	listT1 int8 = iota // resident, seen once recently
	listT2             // resident, seen at least twice
	listB1             // ghost evicted from T1
	listB2             // ghost evicted from T2
)

// cacheEntry is one tracked key: an intrusive node on exactly one of the four
// ARC lists. res is zeroed when the entry is demoted to a ghost list.
type cacheEntry struct {
	key        Key
	res        Result
	list       int8
	prev, next *cacheEntry
}

func (e *cacheEntry) resident() bool { return e.list == listT1 || e.list == listT2 }

// entryList is an intrusive doubly-linked list with a sentinel root:
// root.next is the MRU end, root.prev the LRU end.
type entryList struct {
	root cacheEntry
	n    int
}

func (l *entryList) init() {
	l.root.next = &l.root
	l.root.prev = &l.root
	l.n = 0
}

func (l *entryList) pushFront(e *cacheEntry) {
	e.prev = &l.root
	e.next = l.root.next
	e.prev.next = e
	e.next.prev = e
	l.n++
}

func (l *entryList) remove(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.n--
}

func (l *entryList) back() *cacheEntry {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}

// resultCache is the content-addressed result store plus a singleflight
// layer: concurrent requests for the same key — within one batch or across
// clients — wait for the first computation instead of duplicating it.
//
// Residency is bounded by an ARC policy (Megiddo & Modha): at most capacity
// results are held in RAM, split between a recency list (T1) and a frequency
// list (T2) whose balance adapts via ghost hits (B1/B2 track recently evicted
// keys without their values). When disk is non-nil it is the durable layer
// beneath the resident set: computed results are written behind
// asynchronously, and a key missing from RAM (restart, eviction) is served
// from its segment record instead of re-simulated. The miss path installs
// the durable record *before* the entry becomes resident, so every evictable
// entry is already servable from disk — bounding RAM never loses a paid-for
// result.
type resultCache struct {
	mu       sync.Mutex
	entries  map[Key]*cacheEntry // every tracked key: resident and ghost
	inflight map[Key]*flight
	capacity int
	disk     *Store // nil: memory-only

	// ARC state (all guarded by mu). p is the adaptive target size of T1.
	p              int
	t1, t2, b1, b2 entryList

	// testHook, nil outside tests, is called without the lock at the hook*
	// points of do.
	testHook func(point int)

	// diskHits counts the do() calls served from the durable store rather
	// than RAM (first touch of a key after a restart or after eviction).
	// They return hit, so the tenant ledgers count them among the hits and
	// the hits+misses+canceled == candidates reconciliation is unchanged.
	diskHits atomic.Uint64
	// handoffKeys counts results ingested through the warm-handoff replay
	// (/v1/ingest). Handoff entries are not candidate servings, so they
	// deliberately touch none of the counters above.
	handoffKeys atomic.Uint64
	// evictions counts resident entries demoted to ghosts (or dropped
	// outright) by the ARC bound. Like handoffKeys it is a parallel ledger:
	// an eviction serves no candidate, so it stays outside the
	// hits+misses+canceled == candidates reconciliation.
	evictions atomic.Uint64
}

func newResultCache(capacity int, disk *Store) *resultCache {
	c := &resultCache{
		entries:  make(map[Key]*cacheEntry),
		inflight: make(map[Key]*flight),
		capacity: capacity,
		disk:     disk,
	}
	c.t1.init()
	c.t2.init()
	c.b1.init()
	c.b2.init()
	return c
}

// lookup is the RAM-hit step of do and the whole of a resident hit's cost:
// one lock, the resident check and the ARC touch. For a key that is not
// resident it joins the flight already on it (lead false) or registers a new
// one for the caller to lead. It reads no clock — the hot-path lint root that
// keeps the serve path's timing in do, after a miss is known.
func (c *resultCache) lookup(k Key) (r Result, hit bool, f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok && e.resident() {
		c.touch(e)
		return e.res, true, nil, false
	}
	if f = c.inflight[k]; f != nil {
		return Result{}, false, f, false
	}
	f = &flight{done: make(chan struct{})}
	c.inflight[k] = f
	return Result{}, false, f, true
}

// do returns the cached result for k, or computes it exactly once across all
// concurrent callers. hit reports whether this caller was spared a
// simulation (served from the resident set, the durable store, or another
// caller's flight). compute returns a non-nil error only for
// non-deterministic failures (cancellation) — those are never cached;
// deterministic build/simulate failures travel inside Result.Err and are
// cached like successes, since re-submitting a broken candidate would fail
// identically. tm accumulates how long this caller spent waiting on another
// flight (singleflight_wait), reading the durable layer (disk_hit), and doing
// eviction bookkeeping (evict).
func (c *resultCache) do(ctx context.Context, k Key, tm *candTimings, compute func() (Result, error)) (Result, bool, error) {
	for {
		r, hit, f, lead := c.lookup(k)
		if hit {
			return r, true, nil
		}
		if !lead {
			if c.testHook != nil {
				c.testHook(hookWaiting)
			}
			w0 := time.Now()
			select {
			case <-f.done:
				// The leader finished (or abandoned): loop to re-check the
				// map and, if the leader was canceled or its entry is
				// already evicted, lead the next flight.
				tm.add(stSFWait, time.Since(w0))
				continue
			case <-ctx.Done():
				tm.add(stSFWait, time.Since(w0))
				return Result{}, false, ctx.Err()
			}
		}

		// The durable layer may hold the key from a previous process
		// lifetime or from before an eviction. The probe belongs to the
		// flight: a miss observed here cannot go stale, because nobody else
		// computes or stores the key until the flight ends — which is what
		// keeps "exactly once" true when the entry a leader stores is
		// evicted before a waiter looks.
		fromDisk := false
		if c.disk != nil {
			d0 := time.Now()
			if r, fromDisk = c.disk.Get(k); fromDisk {
				tm.add(stDiskHit, time.Since(d0))
			}
			if c.testHook != nil {
				c.testHook(hookProbed)
			}
		}
		var err error
		if !fromDisk {
			r, err = compute()
			if err == nil && c.disk != nil {
				// Durability before evictability: Put lands the result in
				// the store's pending map synchronously (the disk write
				// itself is behind), so by the time the entry is resident —
				// and therefore evictable — the durable layer can already
				// serve it.
				c.disk.Put(k, r)
			}
		}
		e0 := time.Now()
		ev := 0
		c.mu.Lock()
		if err == nil {
			ev = c.store(k, r)
		}
		delete(c.inflight, k)
		c.mu.Unlock()
		close(f.done)
		if ev > 0 {
			tm.add(stEvict, time.Since(e0))
		}
		switch {
		case err != nil:
			return Result{}, false, err
		case fromDisk:
			c.diskHits.Add(1)
			return r, true, nil
		}
		return r, false, nil
	}
}

// keysInRange lists every key this cache can serve (resident set and durable
// layer) whose ring position falls in [lo, hi] (wrapping when lo > hi) — the
// /v1/keys surface the warm-handoff replay and anti-entropy rounds walk.
// Ghost entries are skipped: their values live on disk (covered by
// disk.Keys) or are gone.
func (c *resultCache) keysInRange(lo, hi uint64) []Key {
	seen := make(map[Key]bool)
	c.mu.Lock()
	out := make([]Key, 0, c.t1.n+c.t2.n)
	for k, e := range c.entries {
		if e.resident() && posInRange(keyPos(k), lo, hi) {
			seen[k] = true
			out = append(out, k)
		}
	}
	c.mu.Unlock()
	if c.disk != nil {
		for _, k := range c.disk.Keys(lo, hi) {
			if !seen[k] {
				out = append(out, k)
			}
		}
	}
	return out
}

// fetch returns the stored results for the requested keys (absent keys are
// silently dropped — the caller asked from a possibly stale key listing).
// Keys evicted from RAM read through to the durable store, so replication
// never under-reports a bounded node's corpus. Serving a fetch is
// replication traffic, not candidate traffic, so it touches none of the
// hit/miss counters and does not perturb ARC recency.
func (c *resultCache) fetch(keys []Key) []Entry {
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		var r Result
		ok := false
		c.mu.Lock()
		if e, got := c.entries[k]; got && e.resident() {
			r, ok = e.res, true
		}
		c.mu.Unlock()
		if !ok && c.disk != nil {
			r, ok = c.disk.Get(k)
		}
		if ok {
			out = append(out, Entry{Key: k, Result: r})
		}
	}
	return out
}

// ingest installs replayed results from a peer (warm handoff, write-through
// replication, anti-entropy). Keys already present are skipped — results are
// content-addressed, so the values cannot differ. On a durable node the
// entries go to disk only: pulling replication traffic into the bounded
// resident set would evict genuinely hot keys (ingest-side scan resistance);
// the key is served from its segment record on first client touch. Returns
// how many entries were new; those count into handoffKeys, not hits/misses
// (nothing was served to a client).
func (c *resultCache) ingest(entries []Entry) int {
	n := 0
	for _, e := range entries {
		c.mu.Lock()
		ce, got := c.entries[e.Key]
		inRAM := got && ce.resident()
		if !inRAM && c.disk == nil {
			c.store(e.Key, e.Result)
		}
		c.mu.Unlock()
		onDisk := false
		if c.disk != nil {
			onDisk = c.disk.Has(e.Key)
			if !onDisk {
				c.disk.Put(e.Key, e.Result)
			}
		}
		if !inRAM && !onDisk {
			n++
		}
	}
	c.handoffKeys.Add(uint64(n))
	return n
}

// store installs k under the ARC policy and returns how many resident
// entries were evicted to make room (0 or 1). Callers hold c.mu.
//
// The four ARC cases (Megiddo & Modha, FAST '03), with one safety deviation:
// replace() is a no-op while the resident set is under budget, so a ghost
// hit on a part-full cache never evicts.
func (c *resultCache) store(k Key, r Result) int {
	if e, ok := c.entries[k]; ok {
		switch e.list {
		case listT1, listT2:
			// Case I: resident hit — refresh the value, promote to T2 MRU.
			e.res = r
			c.touch(e)
			return 0
		case listB1:
			// Case II: ghost hit in B1 — recency is paying off; grow T1's
			// target share before making room.
			d := 1
			if c.b1.n > 0 && c.b2.n/c.b1.n > 1 {
				d = c.b2.n / c.b1.n
			}
			c.p += d
			if c.p > c.capacity {
				c.p = c.capacity
			}
			ev := c.replace(false)
			c.b1.remove(e)
			e.res = r
			e.list = listT2
			c.t2.pushFront(e)
			return ev
		default: // listB2
			// Case III: ghost hit in B2 — frequency is paying off; shrink
			// T1's target share before making room.
			d := 1
			if c.b2.n > 0 && c.b1.n/c.b2.n > 1 {
				d = c.b1.n / c.b2.n
			}
			c.p -= d
			if c.p < 0 {
				c.p = 0
			}
			ev := c.replace(true)
			c.b2.remove(e)
			e.res = r
			e.list = listT2
			c.t2.pushFront(e)
			return ev
		}
	}
	e := &cacheEntry{key: k, res: r, list: listT1}
	// Case IV: brand-new key.
	ev := 0
	if c.t1.n+c.b1.n >= c.capacity {
		if c.t1.n < c.capacity {
			if g := c.b1.back(); g != nil {
				c.b1.remove(g)
				delete(c.entries, g.key)
			}
			ev = c.replace(false)
		} else if v := c.t1.back(); v != nil {
			// B1 is empty and T1 fills the whole budget: drop T1's LRU
			// outright (no ghost — the directory is already at capacity).
			c.t1.remove(v)
			delete(c.entries, v.key)
			c.evictions.Add(1)
			ev = 1
		}
	} else if total := c.t1.n + c.t2.n + c.b1.n + c.b2.n; total >= c.capacity {
		if total >= 2*c.capacity {
			if g := c.b2.back(); g != nil {
				c.b2.remove(g)
				delete(c.entries, g.key)
			}
		}
		ev = c.replace(false)
	}
	c.entries[k] = e
	c.t1.pushFront(e)
	return ev
}

// touch moves a resident entry to T2's MRU position (a second access proves
// frequency). Callers hold c.mu.
func (c *resultCache) touch(e *cacheEntry) {
	switch e.list {
	case listT1:
		c.t1.remove(e)
	case listT2:
		c.t2.remove(e)
	}
	e.list = listT2
	c.t2.pushFront(e)
}

// replace demotes one resident entry to its ghost list, honoring the
// adaptive target p: T1's LRU goes to B1 while T1 exceeds its share,
// otherwise T2's LRU goes to B2. Returns how many entries were evicted
// (0 while the resident set is under budget — nothing needs to go).
// Callers hold c.mu.
func (c *resultCache) replace(inB2 bool) int {
	if c.t1.n+c.t2.n < c.capacity {
		return 0
	}
	if c.t1.n > 0 && (c.t1.n > c.p || (inB2 && c.t1.n == c.p) || c.t2.n == 0) {
		v := c.t1.back()
		c.t1.remove(v)
		v.res = Result{}
		v.list = listB1
		c.b1.pushFront(v)
	} else {
		v := c.t2.back()
		if v == nil {
			return 0
		}
		c.t2.remove(v)
		v.res = Result{}
		v.list = listB2
		c.b2.pushFront(v)
	}
	c.evictions.Add(1)
	return 1
}

// len reports the resident entry count (|T1| + |T2|) — ghosts hold no
// results, so they are not "entries" to the statusz surface.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t1.n + c.t2.n
}
