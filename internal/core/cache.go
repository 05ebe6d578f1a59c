package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
)

// SaveDataset writes a dataset as JSON (datasets are expensive to generate;
// the experiment drivers cache them on disk).
func SaveDataset(ds *Dataset, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(ds); err != nil {
		return fmt.Errorf("core: encode dataset: %w", err)
	}
	return nil
}

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	var ds Dataset
	if err := json.NewDecoder(f).Decode(&ds); err != nil {
		return nil, fmt.Errorf("core: decode dataset: %w", err)
	}
	return &ds, nil
}

// configKey fingerprints a dataset configuration for caching. NParallel is
// left out: parallelism changes how fast a dataset is generated, not what
// it holds.
func configKey(cfg DatasetConfig) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%v|%d|%d|%+v|%d",
		cfg.Arch, cfg.Scale, cfg.Groups, cfg.ImplsPerGroup, cfg.BatchSize,
		cfg.MeasureOpt, cfg.Seed)
	return fmt.Sprintf("%016x", h.Sum64())
}

// memDatasets is how many datasets the in-process memo keeps. The
// experiment drivers hold one corpus per architecture, three keys; a
// process that trains on a new seed every pass would otherwise keep them all.
const memDatasets = 4

type memEntry struct {
	key string
	ds  *Dataset
}

var (
	memCacheMu sync.Mutex
	memCache   []memEntry // least recently used first
)

// memo returns the memoised dataset for key, storing ds under it first when
// there is none and ds is not nil; the entry becomes the most recently used
// and, past memDatasets, the least recently used one is dropped.
func memo(key string, ds *Dataset) *Dataset {
	memCacheMu.Lock()
	defer memCacheMu.Unlock()
	for i, e := range memCache {
		if e.key == key {
			copy(memCache[i:], memCache[i+1:])
			memCache[len(memCache)-1] = e
			return e.ds
		}
	}
	if ds == nil {
		return nil
	}
	if len(memCache) == memDatasets {
		memCache = memCache[:copy(memCache, memCache[1:])]
	}
	memCache = append(memCache, memEntry{key, ds})
	return ds
}

// CachedDataset returns the dataset for cfg from the in-process memo of the
// most recently used datasets and, when cacheDir is non-empty, from disk
// across runs, generating it only when neither has it. The benchmark harness
// relies on this so that every table/figure bench shares one corpus.
func CachedDataset(cfg DatasetConfig, cacheDir string) (*Dataset, error) {
	if cfg.FactoryFor != nil {
		// Custom workload factories cannot be fingerprinted; generate fresh.
		return GenerateDataset(cfg)
	}
	key := configKey(cfg)
	if ds := memo(key, nil); ds != nil {
		return ds, nil
	}

	var path string
	if cacheDir != "" {
		path = filepath.Join(cacheDir, "dataset-"+key+".json")
		if ds, err := LoadDataset(path); err == nil {
			return memo(key, ds), nil
		}
	}
	ds, err := GenerateDataset(cfg)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := SaveDataset(ds, path); err != nil {
			return nil, err
		}
	}
	return memo(key, ds), nil
}
