package cache

import (
	"testing"

	"repro/internal/num"
)

// TestFetchRunBitIdenticalFuzz holds FetchRun to the scalar replay: a random
// sequence of fetches over a handful of code lines, with data accesses
// scattered between them, goes through Fetch and Data in stream order on the
// reference hierarchy; on the other the fetches are folded into one run
// (total, and each line's last ordinal) applied ahead of all the data
// accesses of the stretch — the reordering the executor's fetch-run channel
// performs. When the probe refuses (some line not resident) the probe must
// have changed nothing and the stretch replays scalar on both. Complete
// state of every level must stay equal after every stretch. The L1I is tiny
// (1 KiB, 2-way) and the code addresses alias, so residency comes and goes.
func TestFetchRunBitIdenticalFuzz(t *testing.T) {
	rng := num.NewRNG(1511)
	runs, refused := 0, 0
	for trial := 0; trial < 300; trial++ {
		fast := testHierarchy(t, 8, 2)
		ref := testHierarchy(t, 8, 2)
		codeBase := uint64(1<<20) + uint64(rng.Intn(64))*64
		for stretch := 0; stretch < 12; stretch++ {
			// The box's code: a few lines, consecutive or aliasing to one set.
			n := 1 + rng.Intn(6)
			stride := uint64(64)
			if rng.Float64() < 0.3 {
				stride = 8 * 64 // 8 sets in the 1 KiB 2-way L1I: same set every line
			}
			lines := make([]uint64, n)
			for i := range lines {
				lines[i] = codeBase + uint64(rng.Intn(4))*64 + uint64(i)*stride
			}
			if rng.Float64() < 0.6 {
				// Warm some or all of them, as an ordered first row would.
				for _, l := range lines[:1+rng.Intn(n)] {
					fast.Fetch(l, 1)
					ref.Fetch(l, 1)
				}
			}
			seq := make([]int, 1+rng.Intn(40))
			for i := range seq {
				seq[i] = rng.Intn(n)
			}
			type dataAcc struct {
				addr  uint64
				size  uint32
				write bool
			}
			data := make([][]dataAcc, len(seq))
			for i := range data {
				for k := rng.Intn(3); k > 0; k-- {
					data[i] = append(data[i], dataAcc{uint64(rng.Intn(1 << 13)), uint32(1 + rng.Intn(8)), rng.Float64() < 0.3})
				}
			}
			for i, li := range seq {
				ref.Fetch(lines[li], 1)
				for _, d := range data[i] {
					ref.Data(d.addr, d.size, d.write)
				}
			}
			if fast.FetchResident(lines) {
				runs++
				last := make([]uint64, n)
				for i, li := range seq {
					last[li] = uint64(i) + 1
				}
				fast.FetchRun(uint64(len(seq)), lines, last)
				for i := range seq {
					for _, d := range data[i] {
						fast.Data(d.addr, d.size, d.write)
					}
				}
			} else {
				refused++
				for i, li := range seq {
					fast.Fetch(lines[li], 1)
					for _, d := range data[i] {
						fast.Data(d.addr, d.size, d.write)
					}
				}
			}
			if err := fast.DiffState(ref); err != nil {
				t.Fatalf("trial %d stretch %d (lines=%#x seq=%v): %v", trial, stretch, lines, seq, err)
			}
		}
	}
	if runs == 0 || refused == 0 {
		t.Fatalf("fuzz must exercise both outcomes: runs=%d refused=%d", runs, refused)
	}
	t.Logf("stretches applied as runs: %d, refused by the probe: %d", runs, refused)
}

// TestFetchResidentHasNoSideEffects pins the probe's contract on both
// outcomes: it may touch neither LRU stamps, MRU slots nor counters.
func TestFetchResidentHasNoSideEffects(t *testing.T) {
	h := testHierarchy(t, 4, 2)
	h.Fetch(0, 1)
	h.Fetch(64, 1)
	h.Fetch(0, 1) // MRU of set 0 now differs from fill order
	before := testHierarchy(t, 4, 2)
	copyHierarchyState(before, h)
	if !h.FetchResident([]uint64{64, 0}) {
		t.Fatal("both lines were fetched and must be resident")
	}
	if h.FetchResident([]uint64{0, 64, 128}) {
		t.Fatal("line 128 was never fetched")
	}
	if err := h.DiffState(before); err != nil {
		t.Fatalf("probe mutated state: %v", err)
	}
}

// TestFetchRunWideLines covers an L1I whose lines are wider than the 64 B
// fetch lines the executor tracks: two of its lines share one cache line,
// which must end up with the later of their two ordinals.
func TestFetchRunWideLines(t *testing.T) {
	mk := func() *Hierarchy {
		h, err := NewHierarchy(HierarchyConfig{
			L1D: Config{Name: "L1D", SizeBytes: 1024, LineBytes: 64, Assoc: 2},
			L1I: Config{Name: "L1I", SizeBytes: 1024, LineBytes: 128, Assoc: 2},
			L2:  Config{Name: "L2", SizeBytes: 16 * 1024, LineBytes: 128, Assoc: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fast, ref := mk(), mk()
	lines := []uint64{0, 64, 128}
	for _, l := range lines {
		fast.Fetch(l, 1)
		ref.Fetch(l, 1)
	}
	seq := []int{1, 2, 0, 2, 1, 2} // line 64 last at 5, its cache-line mate 0 at 3
	for _, li := range seq {
		ref.Fetch(lines[li], 1)
	}
	if !fast.FetchResident(lines) {
		t.Fatal("warmed lines must be resident")
	}
	fast.FetchRun(uint64(len(seq)), lines, []uint64{3, 5, 6})
	if err := fast.DiffState(ref); err != nil {
		t.Fatal(err)
	}
}
