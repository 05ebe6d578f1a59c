// Package hotmod is the want-corpus for the hotpath analyzer. The test
// config declares Inner a NoLock hot root, Serve a lock-tolerant hot root,
// and Disk a stop (an opaque tier boundary).
package hotmod

import (
	"fmt"
	"sync"
	"time"
)

var mu sync.Mutex

// Inner is the simulator-inner-loop stand-in: NoLock root.
func Inner(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += step(i)
	}
	_ = time.Now() // want "clock read"
	lockStep()
	return s
}

func step(i int) int {
	if i < 0 {
		// Terminal path: the formatting happens once, right before the
		// process dies — deliberate non-finding.
		panic(fmt.Sprintf("negative index %d", i))
	}
	return helper(i)
}

func helper(i int) int {
	_ = fmt.Sprintf("%d", i) // want "string formatting"
	return i
}

func lockStep() {
	mu.Lock() // want "lock acquisition"
	mu.Unlock()
}

type timings struct{ d time.Duration }

// Serve is the cache-hit serve-path stand-in: hot, but its one batched
// lock is sanctioned (NoLock=false). A clock read is a finding on it whether
// or not a nil check on some handle guards it: the path has one shape, and
// timing belongs outside the root.
func Serve(tm *timings) int {
	t0 := time.Now() // want "clock read"
	v := lookup()
	if tm != nil {
		tm.d = time.Since(t0) // want "clock read"
	}
	return v
}

func lookup() int {
	mu.Lock() // the serve path batches exactly one lock: no finding
	defer mu.Unlock()
	return Disk()
}

// Disk is configured as a stop: disk-side code is a different tier, so its
// clock read is not a hot-path finding.
func Disk() int {
	_ = time.Now()
	return 1
}
