package service

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// goroutineSentinel is the drain and chaos suites' leak check: record a
// baseline before starting work, then assert the count settled back
// afterwards.
type goroutineSentinel struct {
	base int
}

// newGoroutineSentinel snapshots the current goroutine count as baseline.
func newGoroutineSentinel() *goroutineSentinel {
	return &goroutineSentinel{base: runtime.NumGoroutine()}
}

// waitSettled polls until the goroutine count is within tolerance of the
// baseline or timeout elapses; on timeout it returns an error carrying a
// full stack dump of every goroutine, so the leaked one is named in the
// failure instead of needing a re-run under a debugger.
func (g *goroutineSentinel) waitSettled(tolerance int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= g.base+tolerance {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Errorf("goroutine leak: %d running, baseline %d (tolerance %d)\n%s",
				n, g.base, tolerance, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoroutineSentinel: the sentinel fails while goroutines run, names
// them in its stack dump, and settles once they exit.
func TestGoroutineSentinel(t *testing.T) {
	g := newGoroutineSentinel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); <-stop }()
	}
	if err := g.waitSettled(0, 50*time.Millisecond); err == nil {
		t.Fatal("waitSettled must fail while the goroutines run")
	} else if msg := err.Error(); !strings.Contains(msg, "goroutine leak") ||
		!strings.Contains(msg, "TestGoroutineSentinel.func") {
		t.Fatalf("error lacks the leak framing or the leaked goroutines' stacks: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := g.waitSettled(0, 5*time.Second); err != nil {
		t.Fatalf("settled sentinel still failing: %v", err)
	}
}
