package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/num"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/service"
)

// pace is the open-loop dispatch loop: it walks the precomputed arrival
// schedule and fires each arrival at its offset, never waiting on the
// service — a slow backend makes batches pile up in flight, it does not slow
// the offered load down. The loop is a hotpath lint root: the clock, the
// sleeper and the dispatcher are injected as opaque function values, so the
// analyzer proves the loop body itself cannot read a clock, format a string
// or touch JSON — every scheduling decision was already made in BuildPlan.
// Returns how many arrivals were dispatched (short on cancellation, signaled
// by done closing or sleep returning false).
func pace(done <-chan struct{}, arrivals []Arrival, elapsed func() int64, sleep func(int64) bool, dispatch func(Arrival)) int {
	for i := range arrivals {
		for {
			wait := arrivals[i].AtNS - elapsed()
			if wait <= 0 {
				break
			}
			if !sleep(wait) {
				return i
			}
		}
		select {
		case <-done:
			return i
		default:
		}
		dispatch(arrivals[i])
	}
	return len(arrivals)
}

// materialize builds the wire request for one arrival. Candidates are
// constructed here, at dispatch time, not in the plan — the plan stays a
// small hashable schedule while the schedules themselves are derived
// deterministically from it: candidate j of the arrival reorders the
// workload's loop nest into permutation index (First+j) for fresh tenants,
// or a pool slot drawn from the arrival's own seed for pooled tenants.
func materialize(t *TenantSpec, a Arrival) (*service.SimulateRequest, error) {
	wc := t.Workloads[a.Workload]
	spec := wc.Spec
	if a.Dims[0] > 0 {
		spec = service.MatMulSpec(a.Dims[0], a.Dims[1], a.Dims[2])
	}
	factory, err := spec.Factory()
	if err != nil {
		return nil, fmt.Errorf("loadgen: tenant %q: %w", t.Name, err)
	}
	rng := num.NewRNG(a.Seed)
	cands := make([]service.Candidate, a.Batch)
	for j := range cands {
		idx := a.First + j
		if t.Pool > 0 {
			idx = rng.Intn(t.Pool)
		}
		s := schedule.New(factory().Op)
		perm := num.NthPerm(idx, len(s.Leaves))
		order := make([]*schedule.IterVar, len(perm))
		for k, p := range perm {
			order[k] = s.Leaves[p]
		}
		if err := s.Reorder(order); err != nil {
			return nil, fmt.Errorf("loadgen: tenant %q: %w", t.Name, err)
		}
		cands[j] = service.Candidate{Steps: s.Steps}
	}
	return &service.SimulateRequest{Arch: t.Arch, Workload: spec, Candidates: cands}, nil
}

// poolRequests enumerates a pooled tenant's entire candidate set for one
// workload choice, chunked into batches — the warmup phase offers these so
// the sweep measures steady-state (cache-hit) traffic for pooled tenants.
func poolRequests(t *TenantSpec, wi, chunk int) ([]*service.SimulateRequest, error) {
	wc := t.Workloads[wi]
	if wc.DimLo > 0 {
		return nil, nil // per-arrival dims: keys are fresh by design, nothing to prime
	}
	var out []*service.SimulateRequest
	for lo := 0; lo < t.Pool; lo += chunk {
		n := chunk
		if lo+n > t.Pool {
			n = t.Pool - lo
		}
		req, err := materialize(t, Arrival{Tenant: 0, Batch: n, Workload: wi, First: lo})
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, nil
}

// Runner drives one loadgen Config against a Backend (an in-process fleet, a
// single node client, or a router client).
type Runner struct {
	Backend service.Backend
	Cfg     Config
	// Log, when non-nil, receives one progress line per phase.
	Log func(format string, args ...any)
}

// tenantPhase accumulates one tenant's client-side view of a phase.
type tenantPhase struct {
	completed atomic.Uint64
	rejected  atomic.Uint64
	errored   atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	hist      obs.Histogram
}

// Run executes warmup, the optional solo baseline, and the offered-load
// sweep, and assembles the Report. The config must already Validate.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	cfg := &r.Cfg
	rep := &Report{
		Seed:        cfg.Seed,
		DurationSec: cfg.Duration.Seconds(),
		Tenants:     cfg.Tenants,
	}

	// Warmup: prime every pooled tenant's candidate set so the sweep
	// measures steady-state cache behavior, not first-touch simulation.
	for ti := range cfg.Tenants {
		t := &cfg.Tenants[ti]
		if t.Pool <= 0 {
			continue
		}
		for wi := range t.Workloads {
			reqs, err := poolRequests(t, wi, 16)
			if err != nil {
				return nil, err
			}
			tctx := service.WithTenant(ctx, t.Name)
			for _, req := range reqs {
				if _, err := r.Backend.Simulate(tctx, req); err != nil {
					return nil, fmt.Errorf("loadgen: warmup for tenant %q: %w", t.Name, err)
				}
			}
		}
	}
	r.logf("warmup done: pools primed")

	// Solo baseline: the compliant tenant alone at multiplier 1. Its p99
	// here is what the contended run is judged against.
	if iso := cfg.Isolation; iso != nil {
		var solo []TenantSpec
		for _, t := range cfg.Tenants {
			if t.Name == iso.Compliant {
				solo = append(solo, t)
			}
		}
		step, err := r.runPhase(ctx, "solo", solo, 1)
		if err != nil {
			return nil, err
		}
		rep.Steps = append(rep.Steps, step)
		r.logf("solo baseline: %s p99 %.1fms", iso.Compliant, step.Tenants[0].P99MS)
	}

	// The sweep: full mix at each offered-load multiplier.
	for _, mult := range cfg.Steps {
		phase := "x" + strconv.FormatFloat(mult, 'g', -1, 64)
		step, err := r.runPhase(ctx, phase, cfg.Tenants, mult)
		if err != nil {
			return nil, err
		}
		rep.Steps = append(rep.Steps, step)
		r.logf("%s: offered %d candidates, fleet rejected %d", phase, offeredTotal(step), step.Fleet.Rejected)
	}

	rep.finish(cfg)
	return rep, nil
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}

func offeredTotal(s StepReport) (n uint64) {
	for _, t := range s.Tenants {
		n += t.OfferedCandidates
	}
	return n
}

// runPhase offers one phase's plan open-loop and measures it: client-side
// per-tenant latency/outcome counters plus the fleet's statusz delta across
// the phase (all in-flight batches settle before the closing snapshot, so
// the delta reconciles).
func (r *Runner) runPhase(ctx context.Context, phase string, tenants []TenantSpec, mult float64) (StepReport, error) {
	plan := BuildPlan(r.Cfg.Seed^fnv64(phase), tenants, int64(r.Cfg.Duration), mult)

	before, err := r.Backend.Statusz(ctx)
	if err != nil {
		return StepReport{}, fmt.Errorf("loadgen: statusz before phase %s: %w", phase, err)
	}

	col := make([]tenantPhase, len(tenants))
	var wg sync.WaitGroup
	start := time.Now()
	elapsed := func() int64 { return int64(time.Since(start)) }
	sleep := func(ns int64) bool {
		t := time.NewTimer(time.Duration(ns))
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}
	dispatch := func(a Arrival) {
		t := &tenants[a.Tenant]
		c := &col[a.Tenant]
		req, merr := materialize(t, a)
		if merr != nil {
			c.errored.Add(uint64(a.Batch))
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tctx := service.WithTenant(ctx, t.Name)
			t0 := time.Now()
			resp, serr := r.Backend.Simulate(tctx, req)
			lat := time.Since(t0)
			switch {
			case serr == nil:
				c.completed.Add(uint64(a.Batch))
				c.hist.Observe(lat)
				for _, res := range resp.Results {
					if res.CacheHit {
						c.hits.Add(1)
					} else {
						c.misses.Add(1)
					}
				}
			case errors.Is(serr, service.ErrOverloaded):
				c.rejected.Add(uint64(a.Batch))
				c.hist.Observe(lat)
			default:
				c.errored.Add(uint64(a.Batch))
			}
		}()
	}
	pace(ctx.Done(), plan.Arrivals, elapsed, sleep, dispatch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return StepReport{}, fmt.Errorf("loadgen: phase %s: %w", phase, err)
	}

	after, err := r.Backend.Statusz(ctx)
	if err != nil {
		return StepReport{}, fmt.Errorf("loadgen: statusz after phase %s: %w", phase, err)
	}

	step := StepReport{
		Phase:       phase,
		Multiplier:  mult,
		DurationSec: r.Cfg.Duration.Seconds(),
		TraceHash:   plan.Hash(),
		Fleet:       fleetDelta(before, after),
	}
	for ti := range tenants {
		c := &col[ti]
		snap := c.hist.Snapshot()
		step.Tenants = append(step.Tenants, TenantStepReport{
			Tenant:            tenants[ti].Name,
			OfferedBatches:    uint64(plan.PerTenant[ti].Batches),
			OfferedCandidates: uint64(plan.PerTenant[ti].Candidates),
			Completed:         c.completed.Load(),
			Rejected:          c.rejected.Load(),
			Errored:           c.errored.Load(),
			CacheHits:         c.hits.Load(),
			CacheMisses:       c.misses.Load(),
			P50MS:             ms(snap.Quantile(0.5)),
			P99MS:             ms(snap.Quantile(0.99)),
			MaxMS:             ms(snap.Max()),
		})
	}
	return step, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fleetDelta subtracts two statusz snapshots into the phase's fleet ledger
// movement, including the per-tenant rows, and evaluates the invariants.
func fleetDelta(before, after *service.Statusz) FleetReport {
	f := FleetReport{
		Offered:       after.Candidates - before.Candidates,
		CacheHits:     after.CacheHits - before.CacheHits,
		CacheMisses:   after.CacheMisses - before.CacheMisses,
		CacheCanceled: after.CacheCanceled - before.CacheCanceled,
		Rejected:      after.RejectedCandidates - before.RejectedCandidates,
	}

	prev := make(map[string]service.TenantStatus, len(before.Tenants))
	for _, ts := range before.Tenants {
		prev[ts.Tenant] = ts
	}
	f.TenantsReconciled = true
	for _, ts := range after.Tenants {
		p := prev[ts.Tenant] // zero value when the tenant is new this phase
		d := TenantFleetReport{
			Tenant:        ts.Tenant,
			Candidates:    ts.Candidates - p.Candidates,
			CacheHits:     ts.CacheHits - p.CacheHits,
			CacheMisses:   ts.CacheMisses - p.CacheMisses,
			CacheCanceled: ts.CacheCanceled - p.CacheCanceled,
			Rejected:      ts.RejectedCandidates - p.RejectedCandidates,
		}
		if d.Candidates == 0 && d.Rejected == 0 {
			continue // tenant idle this phase
		}
		if d.CacheHits+d.CacheMisses+d.CacheCanceled != d.Candidates {
			f.TenantsReconciled = false
		}
		f.Candidates += d.Candidates
		f.Tenants = append(f.Tenants, d)
	}
	// Cross-ledger check: the per-tenant candidate ledgers must agree with
	// the globally-counted cache outcomes (both are node-side sums, counted
	// by independent code paths).
	f.Reconciled = f.CacheHits+f.CacheMisses+f.CacheCanceled == f.Candidates
	return f
}

// LocalFleet builds an in-process router over n fresh nodes sharing one
// service config — the fixture the e2e suite and `simtune loadgen` (without
// -server) drive. The cleanup shuts the nodes down.
func LocalFleet(n int, scfg service.Config) (*service.Router, func(), error) {
	if len(scfg.Archs) == 0 {
		scfg.Archs = []isa.Arch{isa.RISCV}
	}
	nodes := make([]*service.Server, n)
	ids := make([]string, n)
	backends := make([]service.Backend, n)
	for i := range nodes {
		srv, err := service.NewServer(scfg)
		if err != nil {
			for _, s := range nodes[:i] {
				s.Shutdown(context.Background())
			}
			return nil, nil, err
		}
		nodes[i] = srv
		ids[i] = "node-" + strconv.Itoa(i)
		backends[i] = srv
	}
	rt, err := service.NewRouterBackends(ids, backends, service.RouterConfig{
		ProbeInterval:     -1,
		ReplicationFactor: 1,
	})
	if err != nil {
		for _, s := range nodes {
			s.Shutdown(context.Background())
		}
		return nil, nil, err
	}
	cleanup := func() {
		rt.Close()
		for _, s := range nodes {
			s.Shutdown(context.Background())
		}
	}
	return rt, cleanup, nil
}
