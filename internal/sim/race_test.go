//go:build race

package sim

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a quarter of all Puts on purpose, so the allocation
// ceiling of TestRunAllocations does not apply.
const raceEnabled = true
