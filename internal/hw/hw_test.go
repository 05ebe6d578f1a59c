package hw

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/te"
)

func TestProfilesMatchTableI(t *testing.T) {
	x := Lookup(isa.X86)
	if x.Caches.L1D.Sets() != 64 || x.Caches.L1D.Assoc != 8 {
		t.Fatalf("x86 L1D geometry wrong: %+v", x.Caches.L1D)
	}
	if x.Caches.L2.Sets() != 1024 || x.Caches.L3.Sets() != 32768 || x.Caches.L3.Assoc != 16 {
		t.Fatalf("x86 L2/L3 geometry wrong")
	}
	a := Lookup(isa.ARM)
	if a.Caches.L1D.Sets() != 256 || a.Caches.L1D.Assoc != 2 {
		t.Fatalf("arm L1D geometry wrong: %+v", a.Caches.L1D)
	}
	if a.Caches.L1I.SizeBytes != 48<<10 || a.Caches.L1I.Assoc != 3 || a.Caches.L1I.Sets() != 256 {
		t.Fatalf("arm L1I geometry wrong: %+v", a.Caches.L1I)
	}
	if a.Caches.HasL3() {
		t.Fatal("arm must have no L3")
	}
	r := Lookup(isa.RISCV)
	if r.Caches.L2.SizeBytes != 2<<20 || r.Caches.L2.Sets() != 2048 || r.Caches.L2.Assoc != 16 {
		t.Fatalf("riscv L2 geometry wrong: %+v", r.Caches.L2)
	}
	// Paper frequencies: 2.2, 1.5, 1.2 GHz.
	if x.FreqGHz != 2.2 || a.FreqGHz != 1.5 || r.FreqGHz != 1.2 {
		t.Fatal("paper frequencies wrong")
	}
}

func TestProfilesComplete(t *testing.T) {
	if len(Profiles()) != 3 {
		t.Fatal("want 3 profiles")
	}
	for _, p := range Profiles() {
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			if p.Timing.IssueCost[c] <= 0 {
				t.Fatalf("%s: class %s has no issue cost", p.Arch, c)
			}
		}
		if p.SimMIPS <= 0 {
			t.Fatalf("%s: SimMIPS unset", p.Arch)
		}
	}
}

func buildProg(t *testing.T, arch isa.Arch, blocked bool) *lower.Program {
	t.Helper()
	n := 32
	if blocked {
		// Blocking only pays once operands exceed L1D; use 128³ for the
		// comparison tests.
		n = 128
	}
	wl := te.MatMul(n, n, n)
	s := schedule.New(wl.Op)
	if blocked {
		i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
		io, ii, _ := s.Split(i, 8)
		jo, ji, _ := s.Split(j, 8)
		ko, ki, _ := s.Split(k, 8)
		if err := s.Reorder([]*schedule.IterVar{io, jo, ii, ko, ki, ji}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := lower.Build(s, isa.Lookup(arch))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildProgN(t *testing.T, arch isa.Arch, n int, blocked bool) *lower.Program {
	t.Helper()
	wl := te.MatMul(n, n, n)
	s := schedule.New(wl.Op)
	if blocked {
		i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
		io, ii, _ := s.Split(i, 8)
		jo, ji, _ := s.Split(j, 8)
		ko, ki, _ := s.Split(k, 8)
		if err := s.Reorder([]*schedule.IterVar{io, jo, ii, ko, ki, ji}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := lower.Build(s, isa.Lookup(arch))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTimingPositiveAndDeterministic(t *testing.T) {
	for _, prof := range Profiles() {
		p := buildProg(t, prof.Arch, false)
		m1, err := NewMachine(prof)
		if err != nil {
			t.Fatal(err)
		}
		lower.Execute(p, m1, false)
		m2, _ := NewMachine(prof)
		lower.Execute(p, m2, false)
		if m1.Cycles() <= 0 {
			t.Fatalf("%s: zero cycles", prof.Arch)
		}
		if m1.Cycles() != m2.Cycles() {
			t.Fatalf("%s: timing must be deterministic", prof.Arch)
		}
		if m1.Seconds() <= prof.Timing.CallOverheadSec {
			t.Fatalf("%s: seconds missing cycle component", prof.Arch)
		}
	}
}

func TestEmbeddedSlowerThanX86(t *testing.T) {
	secs := map[isa.Arch]float64{}
	for _, prof := range Profiles() {
		p := buildProg(t, prof.Arch, false)
		m, _ := NewMachine(prof)
		lower.Execute(p, m, false)
		secs[prof.Arch] = m.Seconds()
	}
	if !(secs[isa.X86] < secs[isa.ARM] && secs[isa.ARM] < secs[isa.RISCV]) {
		t.Fatalf("expected x86 < arm < riscv run times, got %+v", secs)
	}
}

func TestBlockingFasterThanNaive(t *testing.T) {
	// Cache blocking must pay off on the timing model for a matmul whose
	// working set exceeds L1.
	for _, prof := range Profiles() {
		naive, _ := NewMachine(prof)
		lower.Execute(buildProgN(t, prof.Arch, 128, false), naive, false)
		blocked, _ := NewMachine(prof)
		lower.Execute(buildProgN(t, prof.Arch, 128, true), blocked, false)
		if blocked.Cycles() >= naive.Cycles() {
			t.Fatalf("%s: blocked %f >= naive %f cycles", prof.Arch, blocked.Cycles(), naive.Cycles())
		}
	}
}

func TestMispredictsCounted(t *testing.T) {
	prof := Lookup(isa.RISCV)
	m, _ := NewMachine(prof)
	lower.Execute(buildProg(t, prof.Arch, false), m, false)
	if m.Mispredicts() == 0 {
		t.Fatal("loop exits must produce mispredicts")
	}
}

func TestMachineReset(t *testing.T) {
	prof := Lookup(isa.ARM)
	m, _ := NewMachine(prof)
	lower.Execute(buildProg(t, prof.Arch, false), m, false)
	m.Reset()
	if m.Cycles() != 0 || m.Mispredicts() != 0 {
		t.Fatal("reset must clear state")
	}
}

// TestMachinePoolAllocations holds a warm AcquireMachine / ReleaseMachine
// pair to zero allocations: the profile-keyed pool lookup on either side of
// every measured candidate must not box its key.
func TestMachinePoolAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, prof := range Profiles() {
		pair := func() {
			m, err := AcquireMachine(prof)
			if err != nil {
				t.Fatal(err)
			}
			ReleaseMachine(m)
		}
		pair() // fills the pool
		if n := testing.AllocsPerRun(100, pair); n != 0 {
			t.Errorf("%s: %.1f allocations per warm Acquire + Release, want 0", prof.Arch, n)
		}
	}
}

func TestMeasureMedianAndElapsed(t *testing.T) {
	prof := Lookup(isa.RISCV)
	p := buildProg(t, prof.Arch, false)
	opt := DefaultMeasureOptions()
	res, err := Measure(p, prof, opt, num.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 15 {
		t.Fatalf("want 15 samples, got %d", len(res.Samples))
	}
	if res.TrefSec <= 0 || res.TrueSec <= 0 {
		t.Fatal("non-positive measurement")
	}
	// Median should be within the noise envelope of the true time.
	if math.Abs(res.TrefSec-res.TrueSec)/res.TrueSec > 0.25 {
		t.Fatalf("median %v too far from true %v", res.TrefSec, res.TrueSec)
	}
	// Elapsed includes 15 cooldowns of 1s.
	if res.ElapsedSec < 15*opt.CooldownSec {
		t.Fatalf("elapsed %v must include cooldowns", res.ElapsedSec)
	}
}

func TestMeasureDeterministicUnderSeed(t *testing.T) {
	prof := Lookup(isa.ARM)
	p := buildProg(t, prof.Arch, false)
	a, _ := Measure(p, prof, DefaultMeasureOptions(), num.NewRNG(9))
	b, _ := Measure(p, prof, DefaultMeasureOptions(), num.NewRNG(9))
	if a.TrefSec != b.TrefSec {
		t.Fatal("same seed must reproduce the measurement")
	}
	c, _ := Measure(p, prof, DefaultMeasureOptions(), num.NewRNG(10))
	if a.TrefSec == c.TrefSec {
		t.Fatal("different seeds should differ")
	}
}

func TestShortRunsNoisier(t *testing.T) {
	prof := Lookup(isa.X86)
	opt := DefaultMeasureOptions()
	spread := func(trueSec float64) float64 {
		rng := num.NewRNG(3)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			m := SampleMeasurement(trueSec, prof, opt, rng)
			for _, s := range m.Samples {
				rel := s / trueSec
				lo = math.Min(lo, rel)
				hi = math.Max(hi, rel)
			}
		}
		return hi - lo
	}
	if spread(50e-6) <= spread(50e-3) {
		t.Fatal("short runs must be relatively noisier than long runs")
	}
}

func TestParallelSimulatorsEq4(t *testing.T) {
	opt := DefaultMeasureOptions()
	// t_sim = 100 s, t_ref = 1 s: K = ceil(100 / (2·15)) = 4.
	if k := ParallelSimulators(100, 1, opt); k != 4 {
		t.Fatalf("K = %d want 4", k)
	}
	// Tiny simulation: K = 1.
	if k := ParallelSimulators(0.001, 1, opt); k != 1 {
		t.Fatalf("K = %d want 1", k)
	}
	if k := ParallelSimulators(10, 0, MeasureOptions{Nexe: 0}); k != 1 {
		t.Fatalf("degenerate K = %d want 1", k)
	}
}

func TestSimSeconds(t *testing.T) {
	prof := Lookup(isa.X86)
	if got := SimSeconds(3_000_000, prof); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("3M instr at 3 MIPS should be 1 s, got %v", got)
	}
}

func TestPrefetcherHelpsStreaming(t *testing.T) {
	// Sequential scan vs strided scan over the same footprint: the stream
	// prefetcher must make the sequential one cheaper on x86.
	prof := Lookup(isa.X86)
	run := func(stride int) float64 {
		m, _ := NewMachine(prof)
		var evs []lower.Event
		n := 1 << 14
		for i := 0; i < n; i++ {
			idx := i * stride % n
			evs = append(evs, lower.Event{PC: 4096, Class: isa.Load,
				Addr: uint64(1 << 20 * 8 * stride), Size: 4})
			evs[len(evs)-1].Addr = uint64(1<<24) + uint64(idx)*64
		}
		m.Consume(evs)
		return m.Cycles()
	}
	seq := run(1)
	strided := run(17)
	if seq >= strided {
		t.Fatalf("sequential %f should be cheaper than strided %f", seq, strided)
	}
}

func TestLookupPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Lookup(isa.Arch("sparc"))
}
