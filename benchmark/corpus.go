package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/ansor"
	"repro/internal/autotvm"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// corpusWorkload is one kernel instance of the sim_corpus population.
type corpusWorkload struct {
	Name    string
	Factory func() *te.Workload
}

// corpusWorkloads is the kernel suite every ISA is measured on at one scale:
// the five Table II conv groups plus a square matmul.
func corpusWorkloads(scale te.Scale, matmul int) []corpusWorkload {
	var out []corpusWorkload
	for g := 0; g < te.NumConvGroups; g++ {
		group := g
		out = append(out, corpusWorkload{
			Name:    fmt.Sprintf("conv_%s_%d", scale, g),
			Factory: func() *te.Workload { return te.ConvGroup(scale, group) },
		})
	}
	out = append(out, corpusWorkload{
		Name:    fmt.Sprintf("matmul_%d", matmul),
		Factory: func() *te.Workload { return te.MatMul(matmul, matmul, matmul) },
	})
	return out
}

// corpusCand is one candidate of the sim_corpus population: a schedule of one
// workload for one ISA, labelled by the generator that proposed it.
type corpusCand struct {
	Arch     isa.Arch
	Workload string
	// Kind is "default", "perm", "autotvm" or "ansor".
	Kind    string
	Steps   []schedule.Step
	factory func() *te.Workload
}

// corpusSize sets how many candidates each generator contributes per
// (ISA, workload) cell of the sampled population, and whether the
// default-schedule rows at ScaleSmall ride along.
type corpusSize struct {
	Ansor     int
	AutoTVM   int
	SmallRows bool
}

// genCorpus builds the candidate population as a pure function of the seed.
//
// The sampled population is tuner-shaped: per (ISA, workload) cell at
// ScaleTiny the default schedule, one random loop-order permutation, AutoTVM
// template samples and Ansor random sketches. Candidates are kept small and
// many on purpose: one candidate's host time varies tenfold with its
// schedule, so only a population of hundreds makes a pass cost the same from
// one seed to the next. The ScaleSmall default schedules — the schedule every
// earlier instr/s headline was taken on — are added as labelled, seed-free
// rows; they carry most of the simulated instructions of a pass.
func genCorpus(seed uint64, sz corpusSize) ([]corpusCand, error) {
	rng := num.NewRNG(seed)
	var out []corpusCand
	for _, arch := range isa.Archs() {
		for _, wl := range corpusWorkloads(te.ScaleTiny, 16) {
			add := func(kind string, steps []schedule.Step) {
				out = append(out, corpusCand{Arch: arch, Workload: wl.Name, Kind: kind,
					Steps: steps, factory: wl.Factory})
			}
			add("default", nil)

			s := schedule.New(wl.Factory().Op)
			// Any index works: NthPerm wraps modulo len(Leaves)!.
			perm := num.NthPerm(1+rng.Intn(1<<20), len(s.Leaves))
			order := make([]*schedule.IterVar, len(perm))
			for i, p := range perm {
				order[i] = s.Leaves[p]
			}
			if err := s.Reorder(order); err != nil {
				return nil, fmt.Errorf("corpus: %s perm: %w", wl.Name, err)
			}
			add("perm", s.Steps)

			tmpl, err := autotvm.TemplateFor(wl.Factory())
			if err != nil {
				return nil, fmt.Errorf("corpus: %s: %w", wl.Name, err)
			}
			for i := 0; i < sz.AutoTVM; i++ {
				w := wl.Factory()
				cs, err := tmpl.Space(w)
				if err != nil {
					return nil, fmt.Errorf("corpus: %s space: %w", wl.Name, err)
				}
				ts, err := tmpl.Apply(w, cs, cs.Sample(rng))
				if err != nil {
					return nil, fmt.Errorf("corpus: %s apply: %w", wl.Name, err)
				}
				add("autotvm", ts.Steps)
			}

			sketches, err := ansor.RandomSketches(wl.Factory, sz.Ansor, rng.Split())
			if err != nil {
				return nil, fmt.Errorf("corpus: %s sketches: %w", wl.Name, err)
			}
			for _, sk := range sketches {
				add("ansor", sk.Steps)
			}
		}
		if !sz.SmallRows {
			continue
		}
		for _, wl := range corpusWorkloads(te.ScaleSmall, 64) {
			out = append(out, corpusCand{Arch: arch, Workload: wl.Name, Kind: "default", factory: wl.Factory})
		}
	}
	return out, nil
}

// build replays the candidate's steps on a fresh workload and lowers it.
func (c *corpusCand) build() (*lower.Program, error) {
	s, err := schedule.Replay(c.factory().Op, c.Steps)
	if err != nil {
		return nil, err
	}
	return lower.Build(s, isa.Lookup(c.Arch))
}

// candID is the candidate's identity line in digests and reports.
func (c *corpusCand) candID() string {
	return fmt.Sprintf("%s/%s/%s/%s", c.Arch, c.Workload, c.Kind,
		hex.EncodeToString(schedule.Canonical(c.Steps)))
}

// statsDigest hashes every simulated statistic of one run; SimWallSeconds is
// host time and deliberately left out.
func statsDigest(st *sim.Stats) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(st.Arch))
	for _, v := range st.Instr {
		put(v)
	}
	put(st.Total)
	put(st.Loads)
	put(st.Stores)
	put(st.Branches)
	put(st.LoopExits)
	for _, lv := range st.Caches {
		h.Write([]byte(lv.Name))
		fmt.Fprintf(h, "%+v", lv.Stats)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}
