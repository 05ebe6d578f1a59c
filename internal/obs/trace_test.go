package obs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceRingBoundedNewestFirst(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Trace{ID: string(rune('a' + i))})
	}
	traces, total := r.Snapshot()
	if total != 5 {
		t.Fatalf("total %d, want 5", total)
	}
	var ids []string
	for _, tr := range traces {
		ids = append(ids, tr.ID)
	}
	if got := strings.Join(ids, ""); got != "edc" {
		t.Fatalf("snapshot order %q, want newest-first edc", got)
	}
	if found := r.Find("a"); len(found) != 0 {
		t.Fatalf("evicted trace still findable: %v", found)
	}
	if found := r.Find("d"); len(found) != 1 {
		t.Fatalf("retained trace not found: %v", found)
	}
}

func TestActiveTraceSpansAndCap(t *testing.T) {
	ring := NewTraceRing(4)
	at := StartTrace(ring, "t1", "node")
	at.Describe("riscv", "conv_group/tiny/1", 9)
	start := time.Now()
	for i := 0; i < maxSpansPerTrace+10; i++ {
		at.Span("simulate", start, time.Millisecond, 1, "")
	}
	at.Span("skipped", start, 0, 0, "") // zero span: dropped silently
	if d := at.Finish(errors.New("boom")); d <= 0 {
		t.Fatalf("finish duration %v", d)
	}
	got := ring.Find("t1")
	if len(got) != 1 {
		t.Fatalf("want 1 trace, got %d", len(got))
	}
	tr := got[0]
	if tr.Err != "boom" || tr.Arch != "riscv" || tr.Candidates != 9 || tr.Tier != "node" {
		t.Fatalf("trace fields wrong: %+v", tr)
	}
	if len(tr.Spans) != maxSpansPerTrace || tr.DroppedSpans != 10 {
		t.Fatalf("span cap: %d spans, %d dropped", len(tr.Spans), tr.DroppedSpans)
	}

	// Amend attaches a post-seal span (the encode stage) to the newest
	// trace with the ID; the cap still applies.
	ring.Add(Trace{ID: "t2"})
	ring.Amend("t2", Span{Stage: "encode", DurNS: 42})
	t2 := ring.Find("t2")[0]
	if len(t2.Spans) != 1 || t2.Spans[0].Stage != "encode" {
		t.Fatalf("amend failed: %+v", t2)
	}
	ring.Amend("gone", Span{Stage: "encode"}) // miss: no-op, no panic
}

func TestNilTraceRingAndActiveTrace(t *testing.T) {
	var r *TraceRing
	r.Add(Trace{ID: "x"})
	r.Amend("x", Span{})
	if traces, total := r.Snapshot(); traces != nil || total != 0 {
		t.Fatal("nil ring must snapshot empty")
	}
	at := StartTrace(nil, "x", "node") // nil ring → nil trace
	if at != nil {
		t.Fatal("StartTrace(nil ring) must return nil")
	}
	at.Describe("a", "b", 1)
	at.Span("s", time.Now(), time.Second, 1, "")
	if at.Finish(nil) != 0 || at.ID() != "" {
		t.Fatal("nil ActiveTrace must be inert")
	}
}

func TestActiveTraceConcurrentSpans(t *testing.T) {
	ring := NewTraceRing(1)
	at := StartTrace(ring, "conc", "node")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				at.Span("simulate", time.Now(), time.Microsecond, 1, "")
			}
		}()
	}
	wg.Wait()
	at.Finish(nil)
	tr := ring.Find("conc")[0]
	if len(tr.Spans)+tr.DroppedSpans != 800 {
		t.Fatalf("spans %d + dropped %d != 800", len(tr.Spans), tr.DroppedSpans)
	}
}

func TestTraceContextPropagation(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("fresh context must carry no trace")
	}
	ctx2, id := EnsureTrace(ctx)
	if id == "" || TraceID(ctx2) != id {
		t.Fatalf("EnsureTrace minted %q", id)
	}
	ctx3, id2 := EnsureTrace(ctx2)
	if id2 != id || ctx3 != ctx2 {
		t.Fatal("EnsureTrace must be idempotent")
	}
	if a, b := NewTraceID(), NewTraceID(); a == b || len(a) != 16 {
		t.Fatalf("trace ids not unique/16-hex: %q %q", a, b)
	}
}
