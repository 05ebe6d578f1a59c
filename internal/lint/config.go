package lint

// DefaultAnalyzers returns the suite configured for this repository: the
// invariants below were each introduced by a specific PR (see
// ARCHITECTURE.md "Static analysis & enforced invariants") and are now
// compile-time facts every future PR inherits.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		AtomicMix(),
		HotPath(HotPathConfig{
			Roots: []HotRoot{
				// Simulator inner loops (PR 1/PR 4): single-goroutine by
				// design, so locks are banned along with clocks and
				// formatting. Execute covers the whole block-aggregated
				// replay; the Hierarchy methods are the per-event entry
				// points the sim/hw sinks drive.
				{Name: "repro/internal/lower.Execute", NoLock: true},
				{Name: "repro/internal/lower.ExecutePerInstruction", NoLock: true},
				{Name: "repro/internal/cache.Hierarchy.DataRun", NoLock: true},
				{Name: "repro/internal/cache.Hierarchy.TryDataRunResident", NoLock: true},
				{Name: "repro/internal/cache.Hierarchy.Data", NoLock: true},
				{Name: "repro/internal/cache.Hierarchy.Fetch", NoLock: true},
				{Name: "repro/internal/cache.Hierarchy.FetchResident", NoLock: true},
				{Name: "repro/internal/cache.Hierarchy.FetchRun", NoLock: true},
				// Cache-hit serve path (PR 2/PR 7): the RAM-hit step of
				// resultCache.do — one mutex (the design, so locks are
				// allowed), the resident check and the ARC touch. No clock,
				// no formatting, no JSON: what do times (flight waits, the
				// disk probe, eviction) it times after lookup has said miss.
				{Name: "repro/internal/service.resultCache.lookup"},
				// The simulate wire (PR 19): the append encoders and cursor
				// decoders exist because reflection was three quarters of a
				// routed hit's CPU, and the per-candidate key because
				// formatting was most of a key's. None of them may reach fmt,
				// encoding/json or a clock — which is also why the fallback
				// to encoding/json is called by their callers, never by them.
				{Name: "repro/internal/service.appendSimulateRequest", NoLock: true},
				{Name: "repro/internal/service.appendSimulateResponse", NoLock: true},
				{Name: "repro/internal/service.decodeSimulateRequest", NoLock: true},
				{Name: "repro/internal/service.decodeSimulateResponse", NoLock: true},
				{Name: "repro/internal/service.candidateKey", NoLock: true},
				{Name: "repro/internal/service.keyPrefix", NoLock: true},
				// Load-generator schedule path (PR 10): the offered-load
				// trace must be a pure function of the seed, so the plan
				// builder and the pacing loop ban clocks, formatting and
				// JSON outright. pace's clock/sleep/dispatch seams are
				// injected function values — outside the provable call
				// graph by construction, which is the point: nothing the
				// loop itself does can read a clock.
				{Name: "repro/internal/loadgen.BuildPlan", NoLock: true},
				{Name: "repro/internal/loadgen.pace", NoLock: true},
			},
			Stops: []string{
				// The durable store is the disk tier: a RAM miss that
				// falls through to Store.Get pays disk+JSON by contract
				// (PR 5), so the RAM-hit invariant stops at its boundary.
				"repro/internal/service.Store.Get",
			},
		}),
		ErrTaxonomy(ErrTaxonomyConfig{
			WirePackages: []string{"repro/internal/service"},
		}),
		SleepSeam(SleepSeamConfig{
			Packages:     []string{"repro/internal/service"},
			AllowInTests: true,
		}),
		LockOrder(LockOrderConfig{
			OrderPairs: []OrderPair{
				// PR 6 drain gate: Server.Simulate takes drainMu.RLock,
				// checks draining, then inflight.Add — in that order, or
				// Shutdown can miss the batch.
				{Mutex: "drainMu", Add: "inflight"},
			},
			Blocking: []string{
				"time.Sleep",
				"net/http.Client.Do",
				"net/http.Client.Get",
				"net/http.Client.Post",
				"net/http.Client.PostForm",
				"net/http.Client.Head",
				"net/http.RoundTripper.RoundTrip",
				"os.File.Sync",
				"os/exec.Cmd.Run",
				"os/exec.Cmd.Wait",
				"os/exec.Cmd.Output",
				"os/exec.Cmd.CombinedOutput",
				// Module-local blocking surfaces: fsync/close on the
				// store's file seam, and the store barriers themselves.
				"repro/internal/service.StoreFile.Sync",
				"repro/internal/service.StoreFile.Close",
				"repro/internal/service.Store.Flush",
			},
		}),
	}
}
