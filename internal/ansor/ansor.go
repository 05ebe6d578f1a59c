// Package ansor reproduces the Auto-Scheduler (Ansor) flow of §II-A: unlike
// AutoTVM's hand-written templates, schedules are generated automatically
// from the kernel's structure. A sketch applies multi-level tiling
// (spatial axes split three ways, reduce axes two ways, interleaved in an
// S-R-S-R-S structure); the annotation phase fills tile sizes and marks
// loops for unrolling or vectorization; and a batch-wise evolutionary search
// breeds new candidates from the best measured ones — the batch-wise
// generation that motivates the paper's static/dynamic window normalization
// at inference (§III-E).
package ansor

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/num"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// genome is the annotated-sketch genotype of one candidate implementation.
type genome struct {
	// spatialMid/spatialInner are tile factors per spatial axis (3-level
	// tiling: outer × mid × inner).
	spatialMid   []int
	spatialInner []int
	// reduceInner are tile factors per reduce axis (2-level tiling).
	reduceInner []int
	// orderVariant selects the S/R interleaving.
	orderVariant int
	// unrollChoice: 0 = none, 1 = innermost reduce, 2 = innermost reduce
	// pair.
	unrollChoice int
	// vectorize marks the innermost spatial tile for SIMD.
	vectorize bool
}

const numOrderVariants = 3

// Record is one measured candidate of the search.
type Record struct {
	Steps   []schedule.Step
	Score   float64
	TimeSec float64
	Stats   *sim.Stats
	Err     error
	// TrueTimeSec/ElapsedSec carry native-measurement bookkeeping when the
	// runner provides it (see runner.MeasureResult).
	TrueTimeSec float64
	ElapsedSec  float64
	// CacheHit marks candidates a simulate-service result cache absorbed:
	// their Stats cost no simulation time (Eq. 4 bookkeeping).
	CacheHit bool
}

// Options configure the search.
type Options struct {
	// Trials is the number of measured candidates.
	Trials int
	// BatchSize is the measurement batch (Ansor generates implementations
	// batch-wise based on prior scores).
	BatchSize int
	Builder   runner.Builder
	Runner    runner.Runner
}

// The evolutionary search's fixed rates.
const (
	// eliteFrac of measured candidates breed the next batch.
	eliteFrac = 0.25
	// mutationProb mutates each genome field independently.
	mutationProb = 0.2
	// randomFrac of every batch stays purely random (exploration).
	randomFrac = 0.2
)

// DefaultOptions returns a search setup suited to the paper's per-group
// candidate counts.
func DefaultOptions() Options {
	return Options{BatchSize: 32}
}

// Policy is the search state.
type Policy struct {
	opt     Options
	rng     *num.RNG
	factory runner.WorkloadFactory

	nSpatial, nReduce int
	spatialExt        []int
	reduceExt         []int

	seen    map[string]bool
	scored  []scoredGenome
	records []Record
}

type scoredGenome struct {
	g     genome
	score float64
}

// NewPolicy builds a search policy for one workload.
func NewPolicy(factory runner.WorkloadFactory, opt Options, rng *num.RNG) (*Policy, error) {
	if opt.Builder == nil || opt.Runner == nil {
		return nil, errors.New("ansor: options need Builder and Runner")
	}
	if opt.Trials <= 0 {
		return nil, errors.New("ansor: Trials must be positive")
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = 32
	}
	wl := factory()
	p := &Policy{opt: opt, rng: rng, factory: factory, seen: map[string]bool{}}
	for _, ax := range wl.Op.Spatial {
		p.spatialExt = append(p.spatialExt, ax.Extent)
	}
	for _, ax := range wl.Op.Reduce {
		p.reduceExt = append(p.reduceExt, ax.Extent)
	}
	p.nSpatial, p.nReduce = len(p.spatialExt), len(p.reduceExt)
	return p, nil
}

// randomGenome samples an annotated sketch uniformly.
func (p *Policy) randomGenome() genome {
	g := genome{
		spatialMid:   make([]int, p.nSpatial),
		spatialInner: make([]int, p.nSpatial),
		reduceInner:  make([]int, p.nReduce),
		orderVariant: p.rng.Intn(numOrderVariants),
		unrollChoice: p.rng.Intn(3),
		vectorize:    p.rng.Float64() < 0.5,
	}
	for i, e := range p.spatialExt {
		inner := pick(p.rng, divisorsCapped(e, 32))
		rest := (e + inner - 1) / inner
		g.spatialInner[i] = inner
		g.spatialMid[i] = pick(p.rng, divisorsCapped(rest, 8))
	}
	for i, e := range p.reduceExt {
		g.reduceInner[i] = pick(p.rng, divisorsCapped(e, 16))
	}
	return g
}

// mutate flips random fields of a copy of g.
func (p *Policy) mutate(g genome) genome {
	out := cloneGenome(g)
	for i := range out.spatialInner {
		if p.rng.Float64() < mutationProb {
			e := p.spatialExt[i]
			out.spatialInner[i] = pick(p.rng, divisorsCapped(e, 32))
			rest := (e + out.spatialInner[i] - 1) / out.spatialInner[i]
			out.spatialMid[i] = pick(p.rng, divisorsCapped(rest, 8))
		}
	}
	for i := range out.reduceInner {
		if p.rng.Float64() < mutationProb {
			out.reduceInner[i] = pick(p.rng, divisorsCapped(p.reduceExt[i], 16))
		}
	}
	if p.rng.Float64() < mutationProb {
		out.orderVariant = p.rng.Intn(numOrderVariants)
	}
	if p.rng.Float64() < mutationProb {
		out.unrollChoice = p.rng.Intn(3)
	}
	if p.rng.Float64() < mutationProb {
		out.vectorize = !out.vectorize
	}
	return out
}

// crossover mixes two genomes field-wise.
func (p *Policy) crossover(a, b genome) genome {
	out := cloneGenome(a)
	for i := range out.spatialInner {
		if p.rng.Float64() < 0.5 {
			out.spatialInner[i] = b.spatialInner[i]
			out.spatialMid[i] = b.spatialMid[i]
		}
	}
	for i := range out.reduceInner {
		if p.rng.Float64() < 0.5 {
			out.reduceInner[i] = b.reduceInner[i]
		}
	}
	if p.rng.Float64() < 0.5 {
		out.orderVariant = b.orderVariant
	}
	if p.rng.Float64() < 0.5 {
		out.unrollChoice = b.unrollChoice
	}
	if p.rng.Float64() < 0.5 {
		out.vectorize = b.vectorize
	}
	return out
}

func cloneGenome(g genome) genome {
	return genome{
		spatialMid:   append([]int(nil), g.spatialMid...),
		spatialInner: append([]int(nil), g.spatialInner...),
		reduceInner:  append([]int(nil), g.reduceInner...),
		orderVariant: g.orderVariant,
		unrollChoice: g.unrollChoice,
		vectorize:    g.vectorize,
	}
}

func (g genome) key() string {
	return fmt.Sprintf("%v|%v|%v|%d|%d|%v",
		g.spatialMid, g.spatialInner, g.reduceInner, g.orderVariant, g.unrollChoice, g.vectorize)
}

// materialize turns a genome into a schedule on a fresh workload: the sketch
// (multi-level tiling + interleaving) plus the annotations.
func (p *Policy) materialize(wl *te.Workload, g genome) (*schedule.Schedule, error) {
	s := schedule.New(wl.Op)
	var s0, s1, s2, r0, r1 []*schedule.IterVar
	// The default leaf order is spatial axes then reduce axes.
	spatial := append([]*schedule.IterVar{}, s.Leaves[:p.nSpatial]...)
	reduce := append([]*schedule.IterVar{}, s.Leaves[p.nSpatial:]...)
	for i, iv := range spatial {
		factorInner := g.spatialInner[i]
		factorMid := g.spatialMid[i]
		outer, rest, err := s.Split(iv, factorMid*factorInner)
		if err != nil {
			return nil, err
		}
		mid, inner, err := s.Split(rest, factorInner)
		if err != nil {
			return nil, err
		}
		s0 = append(s0, outer)
		s1 = append(s1, mid)
		s2 = append(s2, inner)
	}
	for i, iv := range reduce {
		outer, inner, err := s.Split(iv, g.reduceInner[i])
		if err != nil {
			return nil, err
		}
		r0 = append(r0, outer)
		r1 = append(r1, inner)
	}
	var order []*schedule.IterVar
	switch g.orderVariant {
	case 0: // S0 R0 S1 R1 S2 — classic multi-level tiling
		order = concat(s0, r0, s1, r1, s2)
	case 1: // S0 S1 R0 R1 S2 — reduction close to the register tile
		order = concat(s0, s1, r0, r1, s2)
	default: // S0 R0 R1 S1 S2 — whole reduction outside a bigger tile
		order = concat(s0, r0, r1, s1, s2)
	}
	if err := s.Reorder(order); err != nil {
		return nil, err
	}
	switch g.unrollChoice {
	case 1:
		if len(r1) > 0 {
			if err := s.Unroll(r1[len(r1)-1]); err != nil {
				return nil, err
			}
		}
	case 2:
		if len(r1) > 1 {
			if err := s.Unroll(r1[len(r1)-1]); err != nil {
				return nil, err
			}
			if err := s.Unroll(r1[len(r1)-2]); err != nil {
				return nil, err
			}
		} else if len(r1) == 1 {
			if err := s.Unroll(r1[0]); err != nil {
				return nil, err
			}
		}
	}
	if g.vectorize && len(s2) > 0 {
		if err := s.Vectorize(s2[len(s2)-1]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func concat(groups ...[]*schedule.IterVar) []*schedule.IterVar {
	var out []*schedule.IterVar
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func pick(rng *num.RNG, options []int) int { return options[rng.Intn(len(options))] }

func divisorsCapped(n, cap int) []int {
	var out []int
	for d := 1; d <= n && d <= cap; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// nextBatch breeds a measurement batch: elites crossover+mutate, plus a
// random exploration fraction; all candidates are deduplicated.
func (p *Policy) nextBatch(n int) []genome {
	var out []genome
	misses := 0
	for len(out) < n && misses < 256*n {
		var g genome
		switch {
		case len(p.scored) < 4, p.rng.Float64() < randomFrac:
			g = p.randomGenome()
		default:
			a := p.tournament()
			b := p.tournament()
			g = p.mutate(p.crossover(a, b))
		}
		k := g.key()
		if p.seen[k] {
			misses++
			continue
		}
		p.seen[k] = true
		out = append(out, g)
	}
	return out
}

// tournament samples two elites and returns the better genome.
func (p *Policy) tournament() genome {
	nElite := int(float64(len(p.scored)) * eliteFrac)
	if nElite < 2 {
		nElite = len(p.scored)
	}
	a := p.scored[p.rng.Intn(nElite)]
	b := p.scored[p.rng.Intn(nElite)]
	if a.score <= b.score {
		return a.g
	}
	return b.g
}

// RandomSketches materializes n random annotated sketches for the workload
// without measuring them — used by analyses (e.g. the Eq. 4 speedup
// extrapolation) that need representative candidate schedules only.
func RandomSketches(factory runner.WorkloadFactory, n int, rng *num.RNG) ([]*schedule.Schedule, error) {
	wl := factory()
	p := &Policy{opt: DefaultOptions(), rng: rng, factory: factory, seen: map[string]bool{}}
	for _, ax := range wl.Op.Spatial {
		p.spatialExt = append(p.spatialExt, ax.Extent)
	}
	for _, ax := range wl.Op.Reduce {
		p.reduceExt = append(p.reduceExt, ax.Extent)
	}
	p.nSpatial, p.nReduce = len(p.spatialExt), len(p.reduceExt)
	out := make([]*schedule.Schedule, 0, n)
	for len(out) < n {
		s, err := p.materialize(factory(), p.randomGenome())
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Search runs the evolutionary loop until Trials candidates are measured.
func Search(factory runner.WorkloadFactory, opt Options, rng *num.RNG) ([]Record, error) {
	p, err := NewPolicy(factory, opt, rng)
	if err != nil {
		return nil, err
	}
	for len(p.records) < p.opt.Trials {
		want := p.opt.Trials - len(p.records)
		if want > p.opt.BatchSize {
			want = p.opt.BatchSize
		}
		batch := p.nextBatch(want)
		if len(batch) == 0 {
			break
		}
		p.measure(batch)
	}
	if len(p.records) == 0 {
		return nil, errors.New("ansor: no candidates were measured")
	}
	return p.records, nil
}

// measure builds and runs one batch, recording scores and refreshing the
// elite ranking.
func (p *Policy) measure(batch []genome) {
	inputs := make([]runner.MeasureInput, len(batch))
	stepsPer := make([][]schedule.Step, len(batch))
	applyErrs := make([]error, len(batch))
	for i, g := range batch {
		wl := p.factory()
		s, err := p.materialize(wl, g)
		if err != nil {
			applyErrs[i] = err
			inputs[i] = runner.MeasureInput{Factory: p.factory}
			continue
		}
		stepsPer[i] = s.Steps
		inputs[i] = runner.MeasureInput{Factory: p.factory, Steps: s.Steps}
	}
	builds := p.opt.Builder.Build(inputs)
	for i := range builds {
		if applyErrs[i] != nil {
			builds[i] = runner.BuildResult{Err: applyErrs[i]}
		}
	}
	results := p.opt.Runner.Run(inputs, builds)
	for i, res := range results {
		score := res.Score
		if res.Err != nil {
			score = math.Inf(1)
		}
		p.records = append(p.records, Record{
			Steps: stepsPer[i], Score: score, TimeSec: res.TimeSec,
			Stats: res.Stats, Err: res.Err,
			TrueTimeSec: res.TrueTimeSec, ElapsedSec: res.ElapsedSec,
			CacheHit: res.CacheHit,
		})
		if !math.IsInf(score, 1) && !math.IsNaN(score) {
			p.scored = append(p.scored, scoredGenome{g: batch[i], score: score})
		}
	}
	// Keep elites sorted ascending by score (insertion sort; batches are
	// small).
	for i := 1; i < len(p.scored); i++ {
		for j := i; j > 0 && p.scored[j].score < p.scored[j-1].score; j-- {
			p.scored[j], p.scored[j-1] = p.scored[j-1], p.scored[j]
		}
	}
}
