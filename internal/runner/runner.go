// Package runner implements Contribution I of the paper: the builder/runner
// architecture that lets autotuning workloads execute either natively on the
// target hardware or on parallel simulator instances (§III-A, Fig. 1-I).
//
// TVM's autotuning requires a builder (compiles the candidate schedule into
// an executable) and a runner (executes it and reports a score). This
// package provides both: LocalBuilder lowers schedule transform steps into
// executable Programs, LocalRunner plays the role of native execution on the
// target board (timing model + Nexe/cooldown measurement methodology), and
// SimulatorRunner reproduces the paper's SimulatorRunner (Listing 3): it
// executes n_parallel instruction-accurate simulator instances concurrently
// and converts their statistics into scores through a pluggable Scorer.
//
// The Runner/Builder interfaces are the seam every execution backend plugs
// into: candidates travel as (WorkloadFactory, schedule steps) pairs in
// MeasureInput, builders turn them into BuildResults, and runners return
// index-aligned MeasureResults (stats, score, cache-hit provenance). The
// service package's ServiceRunner implements the same pair over a remote
// simulate fleet, which is why tuners cannot tell local simulators from a
// shared service. ParallelCtx is the one worker pool: Parallel is
// ParallelCtx without cancellation, which the simulator runner uses, and the
// service's batch executor calls ParallelCtx itself.
package runner

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// WorkloadFactory creates a fresh workload instance (fresh tensors) so that
// concurrent builds and simulations never share mutable state.
type WorkloadFactory func() *te.Workload

// MeasureInput identifies one candidate implementation: a workload plus the
// schedule transform steps that define it (TVM's MeasureInput analogue).
type MeasureInput struct {
	Factory WorkloadFactory
	Steps   []schedule.Step
}

// BuildResult is the outcome of compiling one candidate.
type BuildResult struct {
	Prog *lower.Program
	Err  error
}

// MeasureResult is the outcome of running one candidate. Score is the
// quantity tuners minimize; TimeSec is a measured run time when the runner
// executes "natively"; Stats carries simulator statistics when the runner is
// simulator-backed.
type MeasureResult struct {
	Score   float64
	TimeSec float64
	Stats   *sim.Stats
	Err     error
	// TrueTimeSec is the noiseless modelled run time (native runners only;
	// used by ablations that vary measurement noise).
	TrueTimeSec float64
	// ElapsedSec is the wall-clock cost of the measurement including
	// cooldowns (Eq. 4 bookkeeping).
	ElapsedSec float64
	// CacheHit marks results served from a simulate-service result cache
	// rather than a fresh simulation. Eq. (4) break-even accounting must
	// treat such measurements as free: their Stats (including
	// SimWallSeconds) describe the original simulation, not work done for
	// this candidate.
	CacheHit bool
}

// Builder compiles measure inputs into runnable programs.
type Builder interface {
	Build(inputs []MeasureInput) []BuildResult
}

// Runner executes built candidates and scores them.
type Runner interface {
	// Name identifies the runner in logs.
	Name() string
	// NParallel reports how many executions may proceed concurrently
	// (1 for native hardware, n_parallel for simulators).
	NParallel() int
	// Run measures every build; inputs and builds are index-aligned.
	Run(inputs []MeasureInput, builds []BuildResult) []MeasureResult
}

// LocalBuilder lowers candidates for one target ISA.
type LocalBuilder struct {
	Arch isa.Arch
}

// Build implements Builder: it replays the schedule steps on a fresh
// workload and lowers the result. Failures land in BuildResult.Err, as TVM
// reports compile errors per candidate.
func (b LocalBuilder) Build(inputs []MeasureInput) []BuildResult {
	model := isa.Lookup(b.Arch)
	out := make([]BuildResult, len(inputs))
	for i, in := range inputs {
		wl := in.Factory()
		s, err := schedule.Replay(wl.Op, in.Steps)
		if err != nil {
			out[i] = BuildResult{Err: fmt.Errorf("runner: replay: %w", err)}
			continue
		}
		p, err := lower.Build(s, model)
		if err != nil {
			out[i] = BuildResult{Err: fmt.Errorf("runner: lower: %w", err)}
			continue
		}
		out[i] = BuildResult{Prog: p}
	}
	return out
}

// Parallel executes fn over [0,count) with at most n concurrent workers,
// preserving result order; it is the worker pool behind the simulator
// runner's n_parallel semantics and is exported for other runners.
func Parallel(n, count int, fn func(i int)) { _ = ParallelCtx(context.Background(), n, count, fn) }

// ParallelCtx is Parallel with cancellation: once ctx is done no further
// indices are dispatched and the call returns ctx.Err() after in-flight fn
// calls finish (fn must observe ctx itself to abort mid-work). It always
// drains its workers before returning, so callers never leak goroutines —
// the property the simulate service relies on to abort batches on server
// shutdown and client disconnect. A nil ctx behaves like Parallel.
func ParallelCtx(ctx context.Context, n, count int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n < 1 {
		n = 1
	}
	if n > count {
		n = count
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	var err error
	for i := 0; i < count && err == nil; i++ {
		// Check Done with priority: when a worker is ready to receive AND
		// ctx is done, a single select would pick either at random and
		// could keep dispatching long after cancellation.
		select {
		case <-ctx.Done():
			err = ctx.Err()
			continue
		default:
		}
		select {
		case work <- i:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	close(work)
	wg.Wait()
	return err
}
