package sim

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/schedule"
	"repro/internal/te"
)

func buildProg(t *testing.T, arch isa.Arch) *lower.Program {
	t.Helper()
	wl := te.MatMul(8, 8, 8)
	p, err := lower.Build(schedule.New(wl.Op), isa.Lookup(arch))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunProducesStats(t *testing.T) {
	for _, arch := range isa.Archs() {
		p := buildProg(t, arch)
		st, err := Run(p, hw.Lookup(arch).Caches)
		if err != nil {
			t.Fatal(err)
		}
		if st.Total == 0 || st.Loads == 0 || st.Stores == 0 || st.Branches == 0 {
			t.Fatalf("%s: empty stats %+v", arch, st)
		}
		if st.Arch != arch {
			t.Fatalf("arch = %s want %s", st.Arch, arch)
		}
	}
}

func TestCacheLevelNamesPerArch(t *testing.T) {
	px := buildProg(t, isa.X86)
	stx, err := Run(px, hw.Lookup(isa.X86).Caches)
	if err != nil {
		t.Fatal(err)
	}
	if len(stx.Caches) != 4 {
		t.Fatalf("x86 must expose 4 cache levels, got %d", len(stx.Caches))
	}
	if _, ok := stx.Cache("L3"); !ok {
		t.Fatal("x86 must have L3")
	}
	pr := buildProg(t, isa.RISCV)
	str, err := Run(pr, hw.Lookup(isa.RISCV).Caches)
	if err != nil {
		t.Fatal(err)
	}
	if len(str.Caches) != 3 {
		t.Fatalf("riscv must expose 3 cache levels, got %d", len(str.Caches))
	}
	if _, ok := str.Cache("L3"); ok {
		t.Fatal("riscv must not have L3")
	}
}

func TestStatsConsistency(t *testing.T) {
	p := buildProg(t, isa.ARM)
	m, err := New(isa.ARM, hw.Lookup(isa.ARM).Caches)
	if err != nil {
		t.Fatal(err)
	}
	lower.Execute(p, m, false)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	// Loads seen by the simulator must equal L1D read accesses (scalar and
	// vector loads each touch L1D once unless they span lines).
	l1d, _ := st.Cache("L1D")
	if l1d.ReadAccesses() < st.Loads {
		t.Fatalf("L1D read accesses %d < load instructions %d", l1d.ReadAccesses(), st.Loads)
	}
	if l1d.WriteAccesses() < st.Stores {
		t.Fatalf("L1D write accesses %d < store instructions %d", l1d.WriteAccesses(), st.Stores)
	}
	var sum uint64
	for _, c := range st.Instr {
		sum += c
	}
	if sum != st.Total {
		t.Fatalf("total %d != class sum %d", st.Total, sum)
	}
}

func TestInstructionFetchLineGranular(t *testing.T) {
	// Unroll the reduction so the body spans several code lines; the hot
	// loop must then produce repeated line fetches that hit in L1I.
	wl := te.MatMul(16, 32, 16)
	s := schedule.New(wl.Op)
	if err := s.Unroll(s.Leaves[2]); err != nil {
		t.Fatal(err)
	}
	p, err := lower.Build(s, isa.Lookup(isa.RISCV))
	if err != nil {
		t.Fatal(err)
	}
	if p.CodeBytes() <= 64 {
		t.Fatalf("unrolled kernel should exceed one code line, got %d B", p.CodeBytes())
	}
	m, err := New(isa.RISCV, hw.Lookup(isa.RISCV).Caches)
	if err != nil {
		t.Fatal(err)
	}
	lower.Execute(p, m, false)
	st := m.Stats()
	l1i, _ := st.Cache("L1I")
	if l1i.ReadAccesses() < 10 {
		t.Fatalf("expected repeated line fetches, got %d", l1i.ReadAccesses())
	}
	if l1i.ReadAccesses() >= st.Total {
		t.Fatalf("line-granular fetches (%d) must be below instruction count (%d)",
			l1i.ReadAccesses(), st.Total)
	}
	hitRate := float64(l1i.ReadHits()) / float64(l1i.ReadAccesses())
	if hitRate < 0.9 {
		t.Fatalf("L1I hit rate = %.3f, expected hot loop to hit", hitRate)
	}
}

func TestResetClearsMachine(t *testing.T) {
	p := buildProg(t, isa.X86)
	m, err := New(isa.X86, hw.Lookup(isa.X86).Caches)
	if err != nil {
		t.Fatal(err)
	}
	lower.Execute(p, m, false)
	m.Reset()
	st := m.Stats()
	if st.Total != 0 {
		t.Fatal("reset must clear instruction counters")
	}
	l1d, _ := st.Cache("L1D")
	if l1d.Accesses() != 0 {
		t.Fatal("reset must clear caches")
	}
}

func TestDeterministicStats(t *testing.T) {
	p := buildProg(t, isa.X86)
	a, err := Run(p, hw.Lookup(isa.X86).Caches)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, hw.Lookup(isa.X86).Caches)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total || a.Loads != b.Loads {
		t.Fatal("same program must produce identical stats")
	}
	ca, _ := a.Cache("L1D")
	cb, _ := b.Cache("L1D")
	if ca != cb {
		t.Fatalf("cache stats differ: %+v vs %+v", ca, cb)
	}
}

func TestTilingImprovesL1DHitRate(t *testing.T) {
	// A 128³ matmul (two 64 KiB operands, exceeding the 32 KiB L1D) with
	// naive i,j,k order vs the classic cache-blocked schedule: blocking
	// must raise the L1D hit rate.
	hitRate := func(blocked bool) float64 {
		wl := te.MatMul(128, 128, 128)
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
		p, err := lower.Build(s, isa.Lookup(isa.ARM))
		if err != nil {
			t.Fatal(err)
		}
		st, err := Run(p, hw.Lookup(isa.ARM).Caches)
		if err != nil {
			t.Fatal(err)
		}
		l1d, _ := st.Cache("L1D")
		return float64(l1d.ReadHits()) / float64(l1d.ReadAccesses())
	}
	plain := hitRate(false)
	blocked := hitRate(true)
	if blocked <= plain {
		t.Fatalf("blocking should improve L1D hit rate: %.4f vs %.4f", blocked, plain)
	}
}

func TestSimWallSecondsMeasured(t *testing.T) {
	p := buildProg(t, isa.X86)
	st, err := Run(p, hw.Lookup(isa.X86).Caches)
	if err != nil {
		t.Fatal(err)
	}
	if st.SimWallSeconds <= 0 {
		t.Fatal("simulation wall time must be measured")
	}
}

// TestRunAllocations holds a pooled candidate simulation to its allocation
// budget: the Stats record and its Caches slice are the candidate's own,
// and nothing else — the pool lookups, the executor's event buffer and
// scratch, the machine and its reset journals allocate nothing.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, arch := range isa.Archs() {
		p := buildProg(t, arch)
		caches := hw.Lookup(arch).Caches
		run := func() {
			if _, err := Run(p, caches); err != nil {
				t.Fatal(err)
			}
		}
		run() // fills the pools, sizes the journals
		if n := testing.AllocsPerRun(50, run); n > 2 {
			t.Errorf("%s: %.1f allocations per pooled Run, want at most 2", arch, n)
		}
	}
}
