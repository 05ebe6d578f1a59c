package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
)

// overloadBackend wraps a Backend and answers Simulate with a 429 while
// saturated — the controllable hot node for shedding tests.
type overloadBackend struct {
	Backend
	saturated bool
	hint      time.Duration
	rejected  int
	mu        sync.Mutex
}

func (o *overloadBackend) Simulate(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	o.mu.Lock()
	sat := o.saturated
	if sat {
		o.rejected++
	}
	o.mu.Unlock()
	if sat {
		return nil, overloadedf(o.hint, "overloaded (injected)")
	}
	return o.Backend.Simulate(ctx, req)
}

// TestAdmissionRejectsWith429 pins the admission gate's contract: a full
// server refuses a batch with the typed ErrOverloaded carrying the
// Retry-After hint, counts the rejection in its own statusz ledger, and
// leaves the accepted-work counters (and so the reconciliation invariant)
// untouched. Releasing the load admits the identical batch.
func TestAdmissionRejectsWith429(t *testing.T) {
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2,
		MaxQueuedCandidates: 8, RetryAfterHint: 1500 * time.Millisecond,
	})
	req := &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 3),
	}
	// Saturate the gate the way 8 admitted candidates would.
	if !srv.admit.tryAcquire(srv.admit.tenant(DefaultTenant), 8) {
		t.Fatal("gate refused the first acquisition")
	}
	_, err := srv.Simulate(context.Background(), req)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated Simulate returned %v, want ErrOverloaded", err)
	}
	if !IsRetryable(err) {
		t.Fatal("overload must classify retryable")
	}
	var se *Error
	if !errors.As(err, &se) || se.Status != 429 {
		t.Fatalf("overload error lost its 429 classification: %v", err)
	}
	if se.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("RetryAfter %v, want the configured 1.5s hint", se.RetryAfter)
	}
	st, _ := srv.Statusz(context.Background())
	if st.RejectedCandidates != 3 {
		t.Fatalf("rejected_candidates %d, want 3", st.RejectedCandidates)
	}
	if st.Requests != 0 || st.Candidates != 0 {
		t.Fatalf("rejected batch leaked into accepted counters: requests=%d candidates=%d",
			st.Requests, st.Candidates)
	}
	if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
		t.Fatalf("invariant broken under rejection: %d+%d+%d != %d",
			st.CacheHits, st.CacheMisses, st.CacheCanceled, st.Candidates)
	}

	srv.admit.release(srv.admit.tenant(DefaultTenant), 8)
	resp, err := srv.Simulate(context.Background(), req)
	if err != nil || len(resp.Results) != 3 {
		t.Fatalf("identical batch after release: %v", err)
	}
	st, _ = srv.Statusz(context.Background())
	if st.Candidates != 3 || st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
		t.Fatalf("post-release accounting off: %+v", st)
	}
	if srv.admit.cur.Load() != 0 {
		t.Fatalf("admission gate leaked %d candidates", srv.admit.cur.Load())
	}
}

// TestOversizedBatchAdmittedWhenIdle pins the liveness exception: a batch
// larger than the whole admission bound is served (serially) when nothing
// else is admitted, rather than being re-rejected forever.
func TestOversizedBatchAdmittedWhenIdle(t *testing.T) {
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2, MaxQueuedCandidates: 2,
	})
	resp, err := srv.Simulate(context.Background(), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 6),
	})
	if err != nil || len(resp.Results) != 6 {
		t.Fatalf("idle oversized batch must be admitted: %v", err)
	}
}

// TestRetryAfterTravelsTheWire pins both wire forms of the pacing hint: the
// standard Retry-After header rounds the hint up to whole seconds, and the
// retry_after_ms body field preserves it exactly — which is what the typed
// error reconstructed by Client carries.
func TestRetryAfterTravelsTheWire(t *testing.T) {
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2,
		MaxQueuedCandidates: 4, RetryAfterHint: 250 * time.Millisecond,
	})
	if !srv.admit.tryAcquire(srv.admit.tenant(DefaultTenant), 4) {
		t.Fatal("gate refused the first acquisition")
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	_, err := NewClient(hs.URL).Simulate(context.Background(), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 2),
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("client saw %v, want ErrOverloaded", err)
	}
	var se *Error
	if !errors.As(err, &se) || se.RetryAfter != 250*time.Millisecond {
		t.Fatalf("sub-second RetryAfter did not survive the hop: %+v", se)
	}

	// Raw HTTP view: the header is the ceiling in whole seconds.
	resp, err := http.Post(hs.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"arch":"riscv","workload":{"kind":"conv_group","scale":"tiny","group":1},"candidates":[{"steps":[]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After header %q, want %q (250ms rounded up)", got, "1")
	}

	// Router hop: the hint must survive node → router → client with the same
	// split — exact milliseconds in the body, whole-second ceiling in the
	// router's own Retry-After header (a "0" header would tell clients to
	// hammer a saturated fleet immediately).
	rt, err := NewRouterBackends([]string{"node-a"}, []Backend{NewClient(hs.URL)},
		RouterConfig{ProbeInterval: -1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()

	_, err = NewClient(rs.URL).Simulate(context.Background(), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 2),
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("client saw %v through the router, want ErrOverloaded", err)
	}
	if !errors.As(err, &se) || se.RetryAfter != 250*time.Millisecond {
		t.Fatalf("sub-second RetryAfter did not survive the router hop: %+v", se)
	}
	resp, err = http.Post(rs.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"arch":"riscv","workload":{"kind":"conv_group","scale":"tiny","group":1},"candidates":[{"steps":[]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("router status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("router Retry-After header %q, want %q (250ms rounded up)", got, "1")
	}
}

// TestRouterShedsOverloadedNode: a 429 from one node must re-route the
// sub-batch to ring successors without ejecting the hot node — it stays up
// for the next batch, and the batch completes.
func TestRouterShedsOverloadedNode(t *testing.T) {
	const group, n = 2, 12
	servers := make([]*Server, 3)
	ids := make([]string, 3)
	hot := make([]*overloadBackend, 3)
	backends := make([]Backend, 3)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		ids[i] = "node-" + string(rune('a'+i))
		hot[i] = &overloadBackend{Backend: servers[i], hint: 10 * time.Millisecond}
		backends[i] = hot[i]
	}
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	hot[0].mu.Lock()
	hot[0].saturated = true
	hot[0].mu.Unlock()

	req := &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", group),
		Candidates: tinyCandidates(t, group, n),
	}
	resp, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("batch must shed around the hot node: %v", err)
	}
	for i, res := range resp.Results {
		if res.Stats == nil {
			t.Fatalf("candidate %d unserved: %+v", i, res)
		}
	}
	if !rt.nodes[0].up.Load() {
		t.Fatal("overload must not eject the node from rotation")
	}
	if rt.rerouted.Load() == 0 {
		t.Fatal("shedding must count as rerouted")
	}

	// The hot node cools down: the next batch uses it again normally.
	hot[0].mu.Lock()
	hot[0].saturated = false
	hot[0].mu.Unlock()
	if _, err := rt.Simulate(context.Background(), req); err != nil {
		t.Fatalf("post-cooldown batch: %v", err)
	}
}

// TestRouterPropagatesFleetwideOverload: with every live node saturated the
// router must return the 429 itself — retryable, Retry-After intact — rather
// than a misleading "no live nodes".
func TestRouterPropagatesFleetwideOverload(t *testing.T) {
	servers := make([]*Server, 2)
	ids := make([]string, 2)
	backends := make([]Backend, 2)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		ids[i] = "node-" + string(rune('a'+i))
		backends[i] = &overloadBackend{Backend: servers[i], saturated: true, hint: 750 * time.Millisecond}
	}
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	_, err = rt.Simulate(context.Background(), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 4),
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fleet-wide saturation returned %v, want ErrOverloaded", err)
	}
	var se *Error
	if !errors.As(err, &se) || se.RetryAfter != 750*time.Millisecond {
		t.Fatalf("propagated 429 lost its Retry-After: %+v", se)
	}
	for _, n := range rt.nodes {
		if !n.up.Load() {
			t.Fatal("saturation must not mark nodes down")
		}
	}
}

// countingBackend fails every Simulate with a fixed error and counts the
// attempts — the retry-exhaustion fixture.
type countingBackend struct {
	err      *Error
	attempts int
}

func (b *countingBackend) Simulate(context.Context, *SimulateRequest) (*SimulateResponse, error) {
	b.attempts++
	return nil, b.err
}
func (b *countingBackend) Statusz(context.Context) (*Statusz, error) { return &Statusz{}, nil }

// TestRetryExhaustion pins the retry budget: a backend that always fails
// retryably is tried exactly Retries+1 times and the last typed error
// surfaces; a non-retryable failure is never retried. The sleep seam stands
// in for the clock, so the test costs no wall time.
func TestRetryExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name     string
		err      *Error
		retries  int
		attempts int
	}{
		{"503 exhausts the budget", unavailablef("down"), 3, 4},
		{"429 is retryable", overloadedf(time.Second, "full"), 2, 3},
		{"400 is not retried", badRequestf("bad"), 5, 1},
		{"501 is not retried", unservedf("not here"), 5, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := &countingBackend{err: tc.err}
			var slept []time.Duration
			r := &ServiceRunner{
				Backend: be, Arch: isa.RISCV, Retries: tc.retries,
				sleep: func(_ context.Context, d time.Duration) error {
					slept = append(slept, d)
					return nil
				},
			}
			_, err := r.simulateWithRetry(context.Background(), &SimulateRequest{})
			if be.attempts != tc.attempts {
				t.Fatalf("%d attempts, want %d", be.attempts, tc.attempts)
			}
			var se *Error
			if !errors.As(err, &se) || se.Status != tc.err.Status {
				t.Fatalf("final error %v, want status %d", err, tc.err.Status)
			}
			if len(slept) != tc.attempts-1 {
				t.Fatalf("slept %d times for %d attempts", len(slept), be.attempts)
			}
			// A server-supplied Retry-After floors every pause.
			if tc.err.RetryAfter > 0 {
				for _, d := range slept {
					if d < tc.err.RetryAfter {
						t.Fatalf("pause %v below the server's Retry-After %v", d, tc.err.RetryAfter)
					}
				}
			}
		})
	}
}

// TestRetryDelayWindows pins the backoff arithmetic: full jitter inside a
// window that doubles per attempt and saturates at the cap, with a
// server-supplied floor winning over a smaller draw.
func TestRetryDelayWindows(t *testing.T) {
	const base, cap = 100 * time.Millisecond, 800 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		window := cap
		if w := base << uint(attempt); w < cap {
			window = w
		}
		for draw := 0; draw < 50; draw++ {
			d := retryDelay(base, cap, attempt, 0)
			if d <= 0 || d > window {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, window)
			}
		}
	}
	// Jitter must actually vary — lockstep retries are the failure mode.
	seen := map[time.Duration]bool{}
	for draw := 0; draw < 32; draw++ {
		seen[retryDelay(base, cap, 3, 0)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("32 draws produced only %d distinct delays — jitter missing", len(seen))
	}
	if d := retryDelay(base, cap, 0, 5*time.Second); d != 5*time.Second {
		t.Fatalf("floor ignored: %v, want 5s", d)
	}
	// A huge attempt index must not overflow into a negative shift window.
	if d := retryDelay(base, cap, 63, 0); d <= 0 || d > cap {
		t.Fatalf("attempt 63: delay %v outside (0, %v]", d, cap)
	}
}

// TestSaturationConvergesWithJitter is the acceptance saturation scenario:
// a tiny admission bound and more concurrent clients than it can hold. Excess
// batches must be 429-rejected (never queued), every client must converge
// through jittered retries, the gate must never over-admit, and the retry
// pacing must spread (no thundering herd of identical delays).
func TestSaturationConvergesWithJitter(t *testing.T) {
	const (
		clients  = 4
		perBatch = 4
		maxAdm   = 4
	)
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2,
		MaxQueuedCandidates: maxAdm, RetryAfterHint: time.Millisecond,
	})
	all := tinyCandidates(t, 1, clients*perBatch)

	var mu sync.Mutex
	var delays []time.Duration
	overAdmitted := false

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &ServiceRunner{
				Backend: srv, Arch: isa.RISCV,
				Workload: ConvGroupSpec("tiny", 1),
				Retries:  100, RetryBackoff: 3 * time.Millisecond, RetryBackoffMax: 24 * time.Millisecond,
				sleep: func(ctx context.Context, d time.Duration) error {
					mu.Lock()
					delays = append(delays, d)
					if srv.admit.cur.Load() > maxAdm {
						overAdmitted = true
					}
					mu.Unlock()
					select {
					case <-time.After(d):
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				},
			}
			resp, err := r.simulateWithRetry(context.Background(), &SimulateRequest{
				Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
				Candidates: all[c*perBatch : (c+1)*perBatch],
			})
			if err == nil && len(resp.Results) != perBatch {
				err = errors.New("short response")
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d never converged: %v", c, err)
		}
	}
	if overAdmitted {
		t.Fatal("admission gate exceeded its bound under concurrency")
	}
	st, _ := srv.Statusz(context.Background())
	if st.RejectedCandidates == 0 {
		t.Fatal("saturation run produced no 429s — the gate never filled")
	}
	if st.Candidates != clients*perBatch {
		t.Fatalf("accepted %d candidates, want %d", st.Candidates, clients*perBatch)
	}
	if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
		t.Fatalf("invariant broken after saturation: %+v", st)
	}
	distinct := map[time.Duration]bool{}
	mu.Lock()
	for _, d := range delays {
		distinct[d] = true
	}
	mu.Unlock()
	if len(delays) == 0 {
		t.Fatal("no retries recorded despite rejections")
	}
	if len(distinct) < 3 && len(delays) >= 3 {
		t.Fatalf("%d retries share %d distinct delays — thundering herd", len(delays), len(distinct))
	}
}
