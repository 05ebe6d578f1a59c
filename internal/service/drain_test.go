package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDrainsInflight pins the drain ordering: a batch admitted
// before Shutdown finishes normally (its results are not lost), batches
// arriving after Shutdown get the retryable draining 503, statusz raises the
// draining flag, and Shutdown returns only once the in-flight work is done.
func TestShutdownDrainsInflight(t *testing.T) {
	sentinel := newGoroutineSentinel()
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1})
	sh := srv.shards[isa.RISCV]
	// Occupy the only worker slot so the in-flight batch stays in flight
	// until the test releases it.
	sh.slots <- struct{}{}

	req := &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 1),
	}
	batchErr := make(chan error, 1)
	var resp *SimulateResponse
	go func() {
		var err error
		resp, err = srv.Simulate(context.Background(), req)
		batchErr <- err
	}()
	waitFor(t, "the batch to queue on the worker", func() bool { return sh.queued.Load() == 1 })

	shutErr := make(chan error, 1)
	go func() { shutErr <- srv.Shutdown(context.Background()) }()
	waitFor(t, "the draining flag", srv.Draining)

	// New work is refused with the retryable draining signal.
	_, err := srv.Simulate(context.Background(), req)
	var se *Error
	if !errors.As(err, &se) || se.Status != 503 || !strings.Contains(se.Msg, "draining") {
		t.Fatalf("post-shutdown Simulate returned %v, want a 503 draining error", err)
	}
	if !IsRetryable(err) {
		t.Fatal("the draining rejection must be retryable (routers fail over on it)")
	}
	st, _ := srv.Statusz(context.Background())
	if !st.Draining {
		t.Fatal("statusz must report draining")
	}

	// Shutdown must still be waiting on the in-flight batch.
	select {
	case err := <-shutErr:
		t.Fatalf("Shutdown returned %v with a batch still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	<-sh.slots // release the worker; the batch completes
	if err := <-batchErr; err != nil {
		t.Fatalf("in-flight batch failed during drain: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Stats == nil {
		t.Fatalf("drained batch lost its results: %+v", resp)
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// A second Shutdown (and Close) are safe no-ops.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("repeat Shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
	// Drain must unwind everything the server started: store writer,
	// admission bookkeeping, worker goroutines.
	if err := sentinel.waitSettled(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDeadlineStillClosesStore: a drain whose context expires first
// reports the deadline but never skips the store flush/close.
func TestShutdownDeadlineStillClosesStore(t *testing.T) {
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1, CacheDir: t.TempDir(),
	})
	sh := srv.shards[isa.RISCV]
	sh.slots <- struct{}{}
	go srv.Simulate(context.Background(), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 1),
		Candidates: tinyCandidates(t, 1, 1),
	})
	waitFor(t, "the batch to queue on the worker", func() bool { return sh.queued.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired drain returned %v, want DeadlineExceeded", err)
	}
	// The store was closed despite the timeout: Put is now a no-op and a
	// second Close stays the recorded (nil) result.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after timed-out Shutdown: %v", err)
	}
	<-sh.slots // unblock the straggler so the test does not leak it
}

// TestCloseReturnsFirstStoreError pins the satellite contract: Close is
// idempotent and every call reports the first flush/close error instead of
// later calls swallowing it behind a no-op.
func TestCloseReturnsFirstStoreError(t *testing.T) {
	faults := NewStoreFaults(7, 0, 1) // every fsync fails
	srv := mustServer(t, Config{
		Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1,
		CacheDir: t.TempDir(), StoreWrapFile: faults.WrapFile,
	})
	first := srv.Close()
	if first == nil || !strings.Contains(first.Error(), "injected") {
		t.Fatalf("Close swallowed the injected fsync error: %v", first)
	}
	if second := srv.Close(); !errors.Is(second, first) {
		t.Fatalf("second Close returned %v, want the first error %v", second, first)
	}
}

// TestRouterRotatesOutDrainingNode: a node that still answers statusz but
// reports draining must leave rotation like a planned down→up cycle, with
// its traffic flowing to ring successors, and its NodeStatus showing why.
func TestRouterRotatesOutDrainingNode(t *testing.T) {
	servers := make([]*Server, 2)
	ids := make([]string, 2)
	backends := make([]Backend, 2)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		ids[i] = "node-" + string(rune('a'+i))
		backends[i] = servers[i]
	}
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if err := servers[0].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rt.probeOnce(context.Background())
	if rt.nodes[0].up.Load() {
		t.Fatal("draining node must leave rotation")
	}
	if ns := rt.nodes[0].status(); !strings.Contains(ns.LastErr, "draining") {
		t.Fatalf("node status %+v does not say draining", ns)
	}

	// The fleet keeps serving: everything lands on the surviving node.
	resp, err := rt.Simulate(context.Background(), &SimulateRequest{
		Arch: "riscv", Workload: ConvGroupSpec("tiny", 3),
		Candidates: tinyCandidates(t, 3, 6),
	})
	if err != nil {
		t.Fatalf("batch during a rolling restart: %v", err)
	}
	for i, r := range resp.Results {
		if r.Stats == nil {
			t.Fatalf("candidate %d unserved during drain: %+v", i, r)
		}
	}
	st, err := rt.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ns := range st.Nodes {
		if ns.ID == ids[0] {
			found = true
			if ns.Up {
				t.Fatal("router statusz reports the draining node as up")
			}
			if !ns.Draining {
				t.Fatal("router statusz lost the node's draining flag")
			}
		}
	}
	if !found {
		t.Fatal("draining node missing from router statusz")
	}
}
