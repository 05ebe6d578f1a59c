package main

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/ansor"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/te"
)

const (
	// batchSize is the candidates per pooled request — a tuner's batch.
	batchSize = 32
	// freshBatch is the candidates per never-seen request of fleet_churn.
	freshBatch = 2
	// fullPoolSize is the distinct Ansor sketches per (ISA, conv group)
	// cell: 15 cells make a pool of 1920 keys, well past the 3 × 256 results
	// the fleet_churn nodes keep resident.
	fullPoolSize = 128
	// fleetNodeCount is the number of simulate nodes behind the router.
	fleetNodeCount = 3
)

// poolCell is the pooled candidates of one (ISA, workload) pair; one request
// draws from one cell, as one tuner batch belongs to one kernel on one target.
type poolCell struct {
	Arch  isa.Arch
	Spec  service.WorkloadSpec
	Cands []service.Candidate
	Keys  []service.Key
}

// distinctSketches draws Ansor random sketches until n with distinct
// canonical step logs are found.
func distinctSketches(spec service.WorkloadSpec, n int, rng *num.RNG) ([]service.Candidate, error) {
	factory, err := spec.Factory()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, n)
	out := make([]service.Candidate, 0, n)
	for round := 0; len(out) < n; round++ {
		if round > 64 {
			return nil, fmt.Errorf("pool: only %d distinct sketches of %v after %d rounds, want %d", len(out), spec, round, n)
		}
		sketches, err := ansor.RandomSketches(factory, n, rng)
		if err != nil {
			return nil, err
		}
		for _, s := range sketches {
			id := string(schedule.Canonical(s.Steps))
			if !seen[id] && len(out) < n {
				seen[id] = true
				out = append(out, service.Candidate{Steps: s.Steps})
			}
		}
	}
	return out, nil
}

// poolSize sizes the primed pool: PerCell distinct Ansor sketches of each of
// the first Groups ScaleTiny conv groups on every ISA.
type poolSize struct {
	PerCell int
	Groups  int
}

var (
	fullPool  = poolSize{PerCell: fullPoolSize, Groups: te.NumConvGroups}
	smokePool = poolSize{PerCell: batchSize, Groups: 1}
)

// genPool builds the primed pool as a pure function of the seed.
func genPool(seed uint64, sz poolSize) ([]poolCell, error) {
	rng := num.NewRNG(seed)
	var cells []poolCell
	for _, arch := range isa.Archs() {
		caches := hw.Lookup(arch).Caches
		for g := 0; g < sz.Groups; g++ {
			cell := poolCell{Arch: arch, Spec: service.ConvGroupSpec(te.ScaleTiny, g)}
			cands, err := distinctSketches(cell.Spec, sz.PerCell, rng.Split())
			if err != nil {
				return nil, err
			}
			cell.Cands = cands
			for _, c := range cands {
				cell.Keys = append(cell.Keys, service.CacheKey(arch, caches, cell.Spec, c.Steps))
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// poolPin pins the pool's cache keys in pool order.
func poolPin(cells []poolCell) pinFile {
	var full [][sha256.Size]byte
	for _, c := range cells {
		for _, k := range c.Keys {
			full = append(full, k)
		}
	}
	return newPin(full)
}

// pooledRequest is one operation of the fixed list: a batch of candidates of
// one cell, with where in the cell each was drawn from.
type pooledRequest struct {
	Req  *service.SimulateRequest
	Cell int
	Idx  []int
}

// genRequests draws the fixed operation list: n requests, each batchSize
// distinct candidates of one randomly chosen cell.
func genRequests(seed uint64, cells []poolCell, n int) []pooledRequest {
	rng := num.NewRNG(seed ^ 0x0b5e55ed)
	out := make([]pooledRequest, n)
	for i := range out {
		ci := rng.Intn(len(cells))
		cell := &cells[ci]
		idx := rng.Perm(len(cell.Cands))[:batchSize]
		req := &service.SimulateRequest{Arch: string(cell.Arch), Workload: cell.Spec,
			Candidates: make([]service.Candidate, batchSize)}
		for j, k := range idx {
			req.Candidates[j] = cell.Cands[k]
		}
		out[i] = pooledRequest{Req: req, Cell: ci, Idx: idx}
	}
	return out
}

// freshDims enumerates the never-seen requests of fleet_churn: a seeded
// permutation of every matmul shape (n, l, m) in [8,24]³, walked once per ISA,
// so no (shape, ISA) pair — and therefore no cache key — is ever sent twice
// in a run. The shapes are tiny on purpose: simulating them stays a minor
// share of what the nodes do.
type freshDims struct {
	order []int
	next  int
}

const (
	freshLo   = 8
	freshSpan = 17 // extents 8..24
)

func newFreshDims(seed uint64) *freshDims {
	return &freshDims{order: num.NewRNG(seed ^ 0xf4e5).Perm(freshSpan * freshSpan * freshSpan)}
}

// request builds the next never-seen request: freshBatch distinct sketches
// of the next unused (shape, ISA) pair.
func (f *freshDims) request(rng *num.RNG) (*service.SimulateRequest, error) {
	archs := isa.Archs()
	lap := f.next / len(f.order)
	if lap >= len(archs) {
		return nil, fmt.Errorf("pool: all %d fresh (shape, ISA) pairs are used up", len(archs)*len(f.order))
	}
	i := f.next % len(f.order)
	v, arch := f.order[i], archs[(i+lap)%len(archs)]
	f.next++
	spec := service.MatMulSpec(freshLo+v%freshSpan, freshLo+v/freshSpan%freshSpan, freshLo+v/(freshSpan*freshSpan))
	cands, err := distinctSketches(spec, freshBatch, rng)
	if err != nil {
		return nil, err
	}
	return &service.SimulateRequest{Arch: string(arch), Workload: spec, Candidates: cands}, nil
}
