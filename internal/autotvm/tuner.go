package autotvm

import (
	"math"

	"repro/internal/num"
	"repro/internal/predictor/xgb"
)

// Tuner proposes configurations and learns from measured scores (AutoTVM's
// tuner concept, §II-A: "AutoTVM relies on tuners responsible for selecting
// subsequent programs based on selectable tuning algorithms").
type Tuner interface {
	Name() string
	// NextBatch proposes up to n configurations (fewer when the space is
	// nearly exhausted).
	NextBatch(n int) []ConfigEntity
	// Update feeds back measured scores (lower = faster; +Inf = failed).
	Update(cfgs []ConfigEntity, scores []float64)
	// HasNext reports whether unexplored configurations remain.
	HasNext() bool
}

// visitTracker deduplicates visited flat indices.
type visitTracker struct {
	space   *ConfigSpace
	visited map[int]bool
}

func newVisitTracker(space *ConfigSpace) *visitTracker {
	return &visitTracker{space: space, visited: map[int]bool{}}
}

func (v *visitTracker) seen(c ConfigEntity) bool { return v.visited[v.space.Index(c)] }
func (v *visitTracker) mark(c ConfigEntity)      { v.visited[v.space.Index(c)] = true }
func (v *visitTracker) exhausted() bool          { return len(v.visited) >= v.space.Size() }

// RandomTuner samples uniformly without replacement.
type RandomTuner struct {
	space *ConfigSpace
	rng   *num.RNG
	track *visitTracker
}

// NewRandomTuner builds a random tuner over the space.
func NewRandomTuner(space *ConfigSpace, rng *num.RNG) *RandomTuner {
	return &RandomTuner{space: space, rng: rng, track: newVisitTracker(space)}
}

// Name implements Tuner.
func (t *RandomTuner) Name() string { return "random" }

// NextBatch implements Tuner.
func (t *RandomTuner) NextBatch(n int) []ConfigEntity {
	var out []ConfigEntity
	misses := 0
	for len(out) < n && !t.track.exhausted() && misses < 64*n {
		c := t.space.Sample(t.rng)
		if t.track.seen(c) {
			misses++
			continue
		}
		t.track.mark(c)
		out = append(out, c)
	}
	return out
}

// Update implements Tuner (random search learns nothing).
func (t *RandomTuner) Update([]ConfigEntity, []float64) {}

// HasNext implements Tuner.
func (t *RandomTuner) HasNext() bool { return !t.track.exhausted() }

// GATuner is a genetic-algorithm tuner: tournament selection over measured
// configurations, knob-wise crossover, point mutation.
type GATuner struct {
	space  *ConfigSpace
	rng    *num.RNG
	track  *visitTracker
	elites []scoredConfig
}

// gaEliteSize bounds the GA's breeding population; gaMutationProb mutates
// each knob independently.
const (
	gaEliteSize    = 32
	gaMutationProb = 0.15
)

type scoredConfig struct {
	cfg   ConfigEntity
	score float64
}

// NewGATuner builds a genetic tuner.
func NewGATuner(space *ConfigSpace, rng *num.RNG) *GATuner {
	return &GATuner{space: space, rng: rng, track: newVisitTracker(space)}
}

// Name implements Tuner.
func (t *GATuner) Name() string { return "ga" }

// NextBatch implements Tuner: random until enough elites exist, then breed.
func (t *GATuner) NextBatch(n int) []ConfigEntity {
	var out []ConfigEntity
	misses := 0
	for len(out) < n && !t.track.exhausted() && misses < 128*n {
		var c ConfigEntity
		if len(t.elites) < 4 {
			c = t.space.Sample(t.rng)
		} else {
			c = t.breed()
		}
		if t.track.seen(c) {
			misses++
			continue
		}
		t.track.mark(c)
		out = append(out, c)
	}
	return out
}

// breed produces a child via tournament selection + crossover + mutation.
func (t *GATuner) breed() ConfigEntity {
	a := t.tournament()
	b := t.tournament()
	child := ConfigEntity{Choices: make([]int, len(t.space.Knobs))}
	for i := range child.Choices {
		if t.rng.Float64() < 0.5 {
			child.Choices[i] = a.Choices[i]
		} else {
			child.Choices[i] = b.Choices[i]
		}
		if t.rng.Float64() < gaMutationProb {
			child.Choices[i] = t.rng.Intn(len(t.space.Knobs[i].Options))
		}
	}
	return child
}

// tournament picks the better of two random elites.
func (t *GATuner) tournament() ConfigEntity {
	a := t.elites[t.rng.Intn(len(t.elites))]
	b := t.elites[t.rng.Intn(len(t.elites))]
	if a.score <= b.score {
		return a.cfg
	}
	return b.cfg
}

// Update implements Tuner: keep the gaEliteSize best configurations.
func (t *GATuner) Update(cfgs []ConfigEntity, scores []float64) {
	for i, c := range cfgs {
		if math.IsInf(scores[i], 1) || math.IsNaN(scores[i]) {
			continue
		}
		t.elites = append(t.elites, scoredConfig{cfg: c, score: scores[i]})
	}
	// Partial selection: keep best gaEliteSize.
	for i := 0; i < len(t.elites); i++ {
		for j := i + 1; j < len(t.elites); j++ {
			if t.elites[j].score < t.elites[i].score {
				t.elites[i], t.elites[j] = t.elites[j], t.elites[i]
			}
		}
	}
	if len(t.elites) > gaEliteSize {
		t.elites = t.elites[:gaEliteSize]
	}
}

// HasNext implements Tuner.
func (t *GATuner) HasNext() bool { return !t.track.exhausted() }

// ModelTuner is the XGBoost-cost-model tuner (AutoTVM's XGBTuner): it fits
// boosted trees on knob features → measured scores and proposes the best
// predicted configurations from a random candidate pool (ε-greedy).
type ModelTuner struct {
	space *ConfigSpace
	rng   *num.RNG
	track *visitTracker
	xs    [][]float64
	ys    []float64
}

// modelPoolSize candidates are scored per batch; modelEpsilon of each batch
// stays random for exploration.
const (
	modelPoolSize = 256
	modelEpsilon  = 0.2
)

// NewModelTuner builds the cost-model tuner.
func NewModelTuner(space *ConfigSpace, rng *num.RNG) *ModelTuner {
	return &ModelTuner{space: space, rng: rng, track: newVisitTracker(space)}
}

// Name implements Tuner.
func (t *ModelTuner) Name() string { return "xgb-model" }

// NextBatch implements Tuner.
func (t *ModelTuner) NextBatch(n int) []ConfigEntity {
	var out []ConfigEntity
	nRandom := n
	if len(t.ys) >= 16 {
		nRandom = int(float64(n) * modelEpsilon)
		model := xgb.New(xgb.Config{Rounds: 60, LearningRate: 0.1, MaxDepth: 4,
			ColSample: 1, SubSample: 1, Lambda: 1, MinChildWeight: 1}, t.rng.Split())
		if err := model.Fit(t.xs, t.ys); err == nil {
			type cand struct {
				cfg  ConfigEntity
				pred float64
			}
			var pool []cand
			for i := 0; i < modelPoolSize; i++ {
				c := t.space.Sample(t.rng)
				if t.track.seen(c) {
					continue
				}
				pool = append(pool, cand{cfg: c, pred: model.Predict(t.space.Features(c))})
			}
			// Selection sort of the pool by predicted score.
			for i := 0; i < len(pool) && len(out) < n-nRandom; i++ {
				best := i
				for j := i + 1; j < len(pool); j++ {
					if pool[j].pred < pool[best].pred {
						best = j
					}
				}
				pool[i], pool[best] = pool[best], pool[i]
				if !t.track.seen(pool[i].cfg) {
					t.track.mark(pool[i].cfg)
					out = append(out, pool[i].cfg)
				}
			}
		}
	}
	misses := 0
	for len(out) < n && !t.track.exhausted() && misses < 128*n {
		c := t.space.Sample(t.rng)
		if t.track.seen(c) {
			misses++
			continue
		}
		t.track.mark(c)
		out = append(out, c)
	}
	return out
}

// Update implements Tuner.
func (t *ModelTuner) Update(cfgs []ConfigEntity, scores []float64) {
	for i, c := range cfgs {
		if math.IsInf(scores[i], 1) || math.IsNaN(scores[i]) {
			continue
		}
		t.xs = append(t.xs, t.space.Features(c))
		t.ys = append(t.ys, scores[i])
	}
}

// HasNext implements Tuner.
func (t *ModelTuner) HasNext() bool { return !t.track.exhausted() }
