package main

import (
	"crypto/sha256"
	_ "embed" // the pinned correctness data is compiled in
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// pinSeed is the seed whose generated inputs and simulated statistics are
// pinned under testdata/.
const pinSeed = 1

//go:embed testdata/corpus_seed1.json
var corpusPinJSON []byte

//go:embed testdata/pool_seed1.json
var poolPinJSON []byte

// pinFile is one pinned list: a short digest per entry, so a mismatch names
// the entry that moved, and the sha256 over all of them.
type pinFile struct {
	Seed    uint64   `json:"seed"`
	Digest  string   `json:"digest"`
	Entries []string `json:"entries"`
}

// newPin builds a pin from full per-entry digests.
func newPin(full [][sha256.Size]byte) pinFile {
	p := pinFile{Seed: pinSeed, Entries: make([]string, len(full))}
	h := sha256.New()
	for i, d := range full {
		h.Write(d[:])
		p.Entries[i] = hex.EncodeToString(d[:8])
	}
	p.Digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// diff compares freshly computed digests with the pinned file and describes
// the first difference; "" means equal.
func (want pinFile) diff(got pinFile) string {
	if len(want.Entries) != len(got.Entries) {
		return fmt.Sprintf("pinned %d entries, computed %d", len(want.Entries), len(got.Entries))
	}
	for i := range want.Entries {
		if want.Entries[i] != got.Entries[i] {
			return fmt.Sprintf("entry %d: pinned %s, computed %s", i, want.Entries[i], got.Entries[i])
		}
	}
	if want.Digest != got.Digest {
		return fmt.Sprintf("digest: pinned %s, computed %s", want.Digest, got.Digest)
	}
	return ""
}

func loadPin(data []byte) (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("pinned data: %w", err)
	}
	return p, nil
}

func writePin(dir, name string, p pinFile) error {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// regenerate recomputes both pinned files for pinSeed and writes them to dir
// (benchmark/testdata). Regenerating is a benchmark-only change: it redefines
// what "correct" means, so it never rides along with a change to the code
// the pins guard.
func regenerate(dir string) error {
	corpus, err := corpusPin(pinSeed)
	if err != nil {
		return err
	}
	if err := writePin(dir, "corpus_seed1.json", corpus); err != nil {
		return err
	}
	pool, err := genPool(pinSeed, fullPool)
	if err != nil {
		return err
	}
	return writePin(dir, "pool_seed1.json", poolPin(pool))
}
