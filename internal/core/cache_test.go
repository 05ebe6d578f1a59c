package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/isa"
)

// memoConfig is the smallest dataset CachedDataset can be asked for: one
// group, four implementations.
func memoConfig(seed uint64) DatasetConfig {
	cfg := tinyConfig(isa.RISCV, seed)
	cfg.Groups, cfg.ImplsPerGroup, cfg.BatchSize = []int{0}, 4, 4
	return cfg
}

// sameData compares what generation determines; the two wall-clock readings
// (Implementation.SimWallSec, Stats.SimWallSeconds) differ run to run.
func sameData(t *testing.T, a, b *Dataset) {
	t.Helper()
	if !reflect.DeepEqual(withoutWallTimes(a), withoutWallTimes(b)) {
		t.Fatal("the datasets differ beyond their wall-clock readings")
	}
}

// withoutWallTimes returns a copy of ds with both wall-clock readings
// zeroed; ds itself, which the memo may share, is left as it is.
func withoutWallTimes(ds *Dataset) Dataset {
	c := *ds
	c.Groups = slices.Clone(ds.Groups)
	for gi := range c.Groups {
		impls := slices.Clone(c.Groups[gi].Impls)
		for i := range impls {
			st := *impls[i].Stats
			st.SimWallSeconds = 0
			impls[i].Stats, impls[i].SimWallSec = &st, 0
		}
		c.Groups[gi].Impls = impls
	}
	return c
}

func memoKeys() []string {
	memCacheMu.Lock()
	defer memCacheMu.Unlock()
	var keys []string
	for _, e := range memCache {
		keys = append(keys, e.key)
	}
	return keys
}

func TestMemoKeepsTheMostRecentlyUsedDatasets(t *testing.T) {
	const base = 7100 // seeds no other test in the package asks for
	var first [6]*Dataset
	for i := range first {
		ds, err := CachedDataset(memoConfig(base+uint64(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		first[i] = ds
		if n := len(memoKeys()); n > memDatasets {
			t.Fatalf("memo holds %d datasets after %d seeds, bound is %d", n, i+1, memDatasets)
		}
	}
	want := []string{configKey(memoConfig(base + 2)), configKey(memoConfig(base + 3)),
		configKey(memoConfig(base + 4)), configKey(memoConfig(base + 5))}
	if got := memoKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("memo keys %v, want the four last seeds %v", got, want)
	}

	// A hit hands back the dataset it was given, and refreshes it: after
	// touching the oldest survivor, one new seed evicts the next oldest.
	for _, i := range []int{5, 2} {
		again, err := CachedDataset(memoConfig(base+uint64(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		if again != first[i] {
			t.Fatalf("seed %d: a memoised dataset came back as another pointer", i)
		}
	}
	if _, err := CachedDataset(memoConfig(base+6), ""); err != nil {
		t.Fatal(err)
	}
	want = []string{configKey(memoConfig(base + 4)), configKey(memoConfig(base + 5)),
		configKey(memoConfig(base + 2)), configKey(memoConfig(base + 6))}
	if got := memoKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("memo keys %v after a refresh and one new seed, want %v", got, want)
	}

	// An evicted dataset is generated again, to the same data.
	back, err := CachedDataset(memoConfig(base), "")
	if err != nil {
		t.Fatal(err)
	}
	if back == first[0] {
		t.Fatal("seed 0 was evicted but came back as the first pointer")
	}
	sameData(t, first[0], back)
}

func TestMemoConcurrentCallers(t *testing.T) {
	const base = 7200
	var wg sync.WaitGroup
	got := make([]*Dataset, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) { // go.mod is at 1.21: the loop variable is shared
			defer wg.Done()
			// Two callers per seed, six seeds' worth of pressure on four slots.
			ds, err := CachedDataset(memoConfig(base+uint64(i/2)), "")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := CachedDataset(memoConfig(base+10+uint64(i%2)), ""); err != nil {
				t.Error(err)
			}
			got[i] = ds
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 0; i < len(got); i += 2 {
		sameData(t, got[i], got[i+1])
	}
	if n := len(memoKeys()); n > memDatasets {
		t.Fatalf("memo holds %d datasets, bound is %d", n, memDatasets)
	}
}

// TestConfigKeyIgnoresParallelism: datasets generated at different
// NParallel hold the same data once the wall-clock readings are zeroed, so
// they share one cache key.
func TestConfigKeyIgnoresParallelism(t *testing.T) {
	var ds [2]*Dataset
	var keys [2]string
	for i, par := range []int{1, 3} {
		cfg := memoConfig(7300)
		cfg.NParallel = par
		keys[i] = configKey(cfg)
		d, err := GenerateDataset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	sameData(t, ds[0], ds[1])
	if keys[0] != keys[1] {
		t.Fatalf("NParallel 1 and 3 key the cache apart: %s, %s", keys[0], keys[1])
	}
}
