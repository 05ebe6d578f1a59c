package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hw"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// admission is the bounded gate in front of the worker shards: the total
// candidates admitted (queued or running, across every shard and batch) may
// not exceed max. It is the server's backpressure primitive — when full, a
// batch is rejected with a 429 instead of queueing without bound, so memory
// and latency stay bounded under any client population and a router can
// shed the load to ring successors.
//
// The bound is shared weighted-fair across tenants. Let W be the weight sum
// of the tenants currently holding admitted work plus the requester; the
// requester's limit is max·w/W. A tenant alone on the server therefore gets
// the whole gate (work conservation — single-tenant behavior is unchanged),
// while under contention each tenant is capped at exactly its share: an
// aggressor that filled the gate is rejected back to its share as soon as a
// second tenant shows up, and a tenant under its share is admitted
// *unconditionally* — a compliant tenant is never 429d by someone else's
// backlog. The price is a bounded transient overshoot of the global max
// (at most one extra share per under-share tenant while an aggressor's
// borrowed admissions drain), which buys the hard fairness guarantee.
//
// One liveness exception: a batch larger than its limit is admitted when
// nothing else is (cur == 0), so an oversized client degrades to serial
// service rather than being re-rejected forever.
//
// Admission is once per batch, not per candidate, so the mutex guarding the
// tenant table is off the per-candidate hot path; cur remains a plain atomic
// for lock-free gauge reads.
//
// The table holds one row per tenant (tenantLedger), created on first sight:
// its weight and gate occupancy, guarded by mu, and its candidate ledgers,
// which stay atomics so the workers never take mu.
type admission struct {
	max int64
	cur atomic.Int64 // total admitted candidates across all tenants
	tel *telemetry   // supplies each row's serve histogram

	mu      sync.Mutex
	weights map[string]float64       // configured fair-share weights (nil: all 1)
	rows    map[string]*tenantLedger // the tenant table
}

// init readies the gate in place (admission embeds a mutex, so it is
// initialized where it lives rather than copied from a constructor).
func (a *admission) init(max int64, weights map[string]float64, tel *telemetry) {
	a.max = max
	a.weights = weights
	a.tel = tel
	a.rows = make(map[string]*tenantLedger)
}

// tenant returns the tenant's row, creating it with the configured weight
// (default 1) and its serve histogram.
func (a *admission) tenant(name string) *tenantLedger {
	a.mu.Lock()
	defer a.mu.Unlock()
	g := a.rows[name]
	if g == nil {
		g = &tenantLedger{name: name, weight: 1, serve: a.tel.tenantServe(name)}
		if w, ok := a.weights[name]; ok && w > 0 {
			g.weight = w
		}
		a.rows[name] = g
	}
	return g
}

// tryAcquire admits n of the tenant's candidates, or reports its fair share
// of the gate full. g is the tenant's row.
func (a *admission) tryAcquire(g *tenantLedger, n int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cur.Load() == 0 {
		// Liveness: an idle server admits any batch, oversized included.
		g.held += int64(n)
		a.cur.Add(int64(n))
		return true
	}
	// W sums the weights of tenants currently holding admitted work, plus
	// this one; the tenant's limit is its weighted share of the gate. With
	// no contention W == g.weight and the limit is the whole gate.
	w := g.weight
	for _, og := range a.rows {
		if og != g && og.held > 0 {
			w += og.weight
		}
	}
	limit := int64(float64(a.max) * g.weight / w)
	if g.held+int64(n) > limit {
		return false
	}
	g.held += int64(n)
	a.cur.Add(int64(n))
	return true
}

// release returns n of the tenant's candidates to the gate.
func (a *admission) release(g *tenantLedger, n int) {
	a.mu.Lock()
	g.held -= int64(n)
	a.mu.Unlock()
	a.cur.Add(int64(-n))
}

// shard is the worker pool of one architecture: a fixed number of simulator
// slots shared by every concurrent batch targeting that arch. Slots are a
// counting semaphore rather than resident goroutines — the expensive
// resource, the simulator machine with its cache hierarchy, is pooled by
// sim.Acquire inside sim.Run, so an idle shard holds no memory and a busy
// one reuses the PR 1 machine pool. Per-arch sharding keeps one
// architecture's backlog from starving the others.
type shard struct {
	prof    hw.Profile
	builder runner.LocalBuilder
	slots   chan struct{}

	queued    atomic.Int64
	running   atomic.Int64
	simulated atomic.Uint64
}

func newShard(prof hw.Profile, workers int) *shard {
	return &shard{
		prof:    prof,
		builder: runner.LocalBuilder{Arch: prof.Arch},
		slots:   make(chan struct{}, workers),
	}
}

// exec compiles and simulates one candidate on a worker slot. The returned
// error is non-nil only for cancellation (not cacheable); deterministic
// build/simulate failures are folded into Result.Err so the cache can absorb
// re-submissions of broken candidates too.
//
// Unlike SimulatorRunner.Run, exec deliberately does NOT consult the
// SimulatorRunKey registry override (Listing 4): cached results must stay a
// pure function of the cache key, and a process-local override would poison
// a cache shared across clients. Custom simulator backends belong behind
// their own Backend implementation instead.
// tm records how long the candidate waited for a slot (queue_wait) and how
// long the build+simulate took (simulate).
func (sh *shard) exec(ctx context.Context, factory runner.WorkloadFactory, steps []schedule.Step, tm *candTimings) (Result, error) {
	sh.queued.Add(1)
	q0 := time.Now()
	select {
	case sh.slots <- struct{}{}:
		sh.queued.Add(-1)
		tm.add(stQueueWait, time.Since(q0))
	case <-ctx.Done():
		sh.queued.Add(-1)
		tm.add(stQueueWait, time.Since(q0))
		return Result{}, ctx.Err()
	}
	sh.running.Add(1)
	s0 := time.Now()
	defer func() {
		tm.add(stSimulate, time.Since(s0))
		sh.running.Add(-1)
		<-sh.slots
	}()

	build := sh.builder.Build([]runner.MeasureInput{{Factory: factory, Steps: steps}})[0]
	if build.Err != nil {
		return Result{Err: build.Err.Error()}, nil
	}
	st, err := sim.Run(build.Prog, sh.prof.Caches)
	if err != nil {
		return Result{Err: err.Error()}, nil
	}
	sh.simulated.Add(1)
	return Result{Stats: st}, nil
}

// status snapshots the shard's load counters.
func (sh *shard) status() ShardStatus {
	return ShardStatus{
		Arch:      string(sh.prof.Arch),
		Workers:   cap(sh.slots),
		Queued:    sh.queued.Load(),
		Running:   sh.running.Load(),
		Simulated: sh.simulated.Load(),
	}
}
