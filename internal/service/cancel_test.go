package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/te"
)

// TestCanceledBatchIsBatchLevelNotPerCandidate is the regression test for
// the canceled≠failed bug: a context that dies mid-batch (after ParallelCtx
// has dispatched work) must fail the batch as a whole with a retryable
// error — never return a response whose Result.Err marks viable candidates
// as deterministic failures, which clients score +Inf and tuners permanently
// discard.
func TestCanceledBatchIsBatchLevelNotPerCandidate(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1})
	const group, n = 1, 8
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the single worker finishes its first simulation:
	// work has been dispatched, so this lands after ParallelCtx's dispatch
	// loop may already have completed — exactly the window where the old
	// code wrote "canceled: ..." into per-candidate results.
	go func() {
		for srv.shards[isa.RISCV].simulated.Load() == 0 {
			runtime.Gosched()
		}
		cancel()
	}()
	resp, err := srv.Simulate(ctx, req)
	if err == nil {
		// The whole batch may legitimately finish before the cancel lands
		// on a fast machine; then there is nothing to assert here, but the
		// per-candidate invariant below must still hold on the response.
		for i, res := range resp.Results {
			if strings.Contains(res.Err, "cancel") {
				t.Fatalf("candidate %d carries a cancellation as Result.Err: %q", i, res.Err)
			}
		}
	} else {
		if resp != nil {
			t.Fatal("a failed batch must not also return results")
		}
		if !IsRetryable(err) {
			t.Fatalf("batch cancellation must classify retryable, got %v", err)
		}
		var se *Error
		if !errors.As(err, &se) || se.Status != 503 {
			t.Fatalf("want 503 classification for canceled batch, got %v", err)
		}
	}

	// Re-submitting the identical batch must re-simulate everything that was
	// canceled — no canceled placeholder may have been cached.
	resp2, err := srv.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp2.Results {
		if res.Err != "" {
			t.Fatalf("candidate %d failed on re-submission: %s", i, res.Err)
		}
		if res.Stats == nil {
			t.Fatalf("candidate %d: no stats on re-submission", i)
		}
	}
	if got := srv.cache.len(); got != n {
		t.Fatalf("cache holds %d entries after full re-run, want %d", got, n)
	}
}

// TestClientDisconnectMidBatchOverHTTP drives the same invariant over the
// wire: the HTTP request context dies with the client connection, the server
// logs a canceled batch (503-classified, not 400), and a second client
// re-running the batch gets clean results.
func TestClientDisconnectMidBatchOverHTTP(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	const group, n = 2, 8
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}

	// Hold candidate 0's flight open, so the batch cannot finish before the
	// disconnect lands: the client tears its connection down as soon as the
	// batch's worker waits on that flight. The held compute then returns a
	// cancellation, which caches nothing.
	ctx, cancel := context.WithCancel(context.Background())
	srv.cache.testHook = func(point int) {
		if point == hookWaiting {
			cancel()
		}
	}
	k := CacheKey(isa.RISCV, hw.Lookup(isa.RISCV).Caches, req.Workload, req.Candidates[0].Steps)
	held, release, flightDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flightDone)
		_, _, err := srv.cache.do(context.Background(), k, new(candTimings), func() (Result, error) {
			close(held)
			<-release
			return Result{}, context.Canceled
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("held flight returned %v, want its own cancellation", err)
		}
	}()
	<-held
	_, err := NewClient(hs.URL).Simulate(ctx, req)
	close(release)
	<-flightDone
	if err == nil {
		t.Fatal("batch finished although candidate 0's flight was held open")
	}

	// A fresh client re-runs the identical batch: every candidate must
	// come back with stats — never a cached "canceled" placeholder, and
	// never a per-candidate error inherited from the disconnected run.
	resp, err := NewClient(hs.URL).Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Err != "" || res.Stats == nil {
			t.Fatalf("candidate %d after disconnect+retry: %+v", i, res)
		}
	}
	// Accounting reconciles exactly: every accepted candidate either hit,
	// missed, or was explicitly canceled (including the ones ParallelCtx
	// never dispatched) — nothing is silently dropped. The disconnected
	// handler may still be draining server-side, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := srv.Statusz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Candidates == 2*n && st.CacheHits+st.CacheMisses+st.CacheCanceled == st.Candidates {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting does not reconcile: hits=%d misses=%d canceled=%d != candidates=%d",
				st.CacheHits, st.CacheMisses, st.CacheCanceled, st.Candidates)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheDoCanceledAccounting pins cancellation at the cache layer, where
// the timing is controllable: a waiter canceled mid-flight and a leader whose
// compute is canceled both return the context error and no hit, nothing
// canceled is ever stored, and the next caller re-computes.
func TestCacheDoCanceledAccounting(t *testing.T) {
	c := newResultCache(16, nil)
	var k Key
	k[0] = 7

	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, hit, err := c.do(context.Background(), k, new(candTimings), func() (Result, error) {
			<-release
			return Result{Err: "deterministic"}, nil
		})
		if err != nil || hit {
			t.Errorf("leader: hit=%v err=%v, want a miss", hit, err)
		}
	}()

	// Wait until the leader's flight is registered, then join as a waiter
	// with a cancelable context.
	for {
		c.mu.Lock()
		_, inflight := c.inflight[k]
		c.mu.Unlock()
		if inflight {
			break
		}
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, hit, err := c.do(ctx, k, new(candTimings), nil); !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("canceled waiter returned hit=%v err=%v", hit, err)
	}
	close(release)
	<-leaderDone

	// Leader-canceled compute: returns the context error, stores nothing.
	var k2 Key
	k2[0] = 9
	_, hit, err := c.do(context.Background(), k2, new(candTimings), func() (Result, error) {
		return Result{}, context.Canceled
	})
	if !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("canceled leader returned hit=%v err=%v", hit, err)
	}
	// The canceled key was never cached: the next caller computes fresh.
	r, hit, err := c.do(context.Background(), k2, new(candTimings), func() (Result, error) {
		return Result{Err: "recomputed"}, nil
	})
	if err != nil || hit || r.Err != "recomputed" {
		t.Fatalf("re-submission after canceled compute: r=%+v hit=%v err=%v", r, hit, err)
	}
}

// countingDialer counts TCP dials so tests can prove connection reuse.
type countingDialer struct {
	dials atomic.Int64
}

func (d *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.dials.Add(1)
	var std net.Dialer
	return std.DialContext(ctx, network, addr)
}

// TestClientDrainsErrorBodyForConnReuse is the regression test for the
// connection-churn bug: error responses larger than the 4096-byte message
// window (and responses whose decode fails partway) must be drained before
// close, or net/http tears down the pooled connection and every error costs
// a fresh dial under the router's fan-out.
func TestClientDrainsErrorBodyForConnReuse(t *testing.T) {
	bigMsg := strings.Repeat("x", 32<<10)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(bigMsg)))
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, bigMsg)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	dialer := &countingDialer{}
	cl := NewClient(hs.URL)
	cl.HTTPClient = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{DialContext: dialer.DialContext},
	}
	for i := 0; i < 3; i++ {
		_, err := cl.Statusz(context.Background())
		if err == nil {
			t.Fatal("statusz must surface the 500")
		}
		var se *Error
		if !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
			t.Fatalf("want typed 500, got %v", err)
		}
	}
	if n := dialer.dials.Load(); n != 1 {
		t.Fatalf("%d dials for 3 sequential error responses — error bodies are not drained", n)
	}
}
