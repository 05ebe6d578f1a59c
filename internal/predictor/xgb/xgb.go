// Package xgb implements gradient-boosted regression trees in the XGBoost
// formulation (§III-D.4): trees built sequentially on gradient/hessian
// statistics, exact greedy splits with the regularized gain
//
//	gain = ½·(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)) − γ,
//
// shrinkage (learning rate), column subsampling, row subsampling, L1/L2
// leaf regularization and minimum child weight — the paper's tuned
// configuration is the default (§IV-C).
package xgb

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/num"
)

// Config are the XGBoost hyper-parameters.
type Config struct {
	Rounds         int     // number of boosted trees (paper: 300)
	LearningRate   float64 // shrinkage η (paper: 0.05)
	MaxDepth       int     // maximum tree depth (paper: 3)
	ColSample      float64 // column subsample ratio per tree (paper: 0.6)
	SubSample      float64 // row subsample ratio per tree (paper: 0.8)
	Lambda         float64 // L2 leaf regularization (paper: 0.1)
	Alpha          float64 // L1 leaf regularization (paper: 0)
	Gamma          float64 // minimum split gain
	MinChildWeight float64 // minimum hessian sum per child (paper: 1)
}

// DefaultConfig returns the paper's grid-search winner.
func DefaultConfig() Config {
	return Config{
		Rounds: 300, LearningRate: 0.05, MaxDepth: 3, ColSample: 0.6,
		SubSample: 0.8, Lambda: 0.1, Alpha: 0, Gamma: 0, MinChildWeight: 1,
	}
}

type node struct {
	feat        int
	thresh      float64
	left, right int
	leaf        float64
	isLeaf      bool
}

type tree struct {
	nodes []node
}

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.isLeaf {
			return n.leaf
		}
		if x[n.feat] < n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is the boosted-tree predictor.
type Model struct {
	cfg   Config
	rng   *num.RNG
	base  float64
	trees []tree
}

// New builds an XGBoost predictor; rng drives row/column subsampling.
func New(cfg Config, rng *num.RNG) *Model {
	if cfg.Rounds <= 0 {
		cfg = DefaultConfig()
	}
	return &Model{cfg: cfg, rng: rng}
}

// Name implements predictor.Predictor.
func (m *Model) Name() string { return "XGBoost" }

// Fit boosts MSE gradients: g_i = pred_i − y_i, h_i = 1.
func (m *Model) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("xgb: empty or mismatched training data")
	}
	g, err := newGrower(m, x)
	if err != nil {
		return err
	}
	n, d := len(x), len(x[0])
	m.base = num.Mean(y)
	m.trees = m.trees[:0]
	preds := make([]float64, n)
	for i := range preds {
		preds[i] = m.base
	}

	for round := 0; round < m.cfg.Rounds; round++ {
		for i := range g.grads {
			g.grads[i] = preds[i] - y[i]
		}
		rows := m.sampleRows(n)
		cols := m.sampleCols(d)
		tr := g.buildTree(rows, cols)
		m.trees = append(m.trees, tr)
		for i := range preds {
			preds[i] += tr.predict(x[i])
		}
	}
	return nil
}

// sampleRows picks SubSample·n rows without replacement.
func (m *Model) sampleRows(n int) []int {
	k := int(math.Ceil(m.cfg.SubSample * float64(n)))
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return m.rng.Perm(n)[:k]
}

// sampleCols picks ColSample·d features without replacement.
func (m *Model) sampleCols(d int) []int {
	k := int(math.Ceil(m.cfg.ColSample * float64(d)))
	if k < 1 {
		k = 1
	}
	if k >= d {
		out := make([]int, d)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return m.rng.Perm(d)[:k]
}

// grower is what one Fit keeps across its rounds: the training matrix by
// column, each column's rows sorted once, and the scratch one tree needs.
type grower struct {
	m     *Model
	n     int
	val   []float64 // val[f*n+r] = x[r][f]
	order []int32   // order[f*n:(f+1)*n]: the rows ascending by (x[r][f], r)
	grads []float64
	slot  []int32    // row → index of its node in the level being split, −1 if none
	rows  [2][]int   // node row lists of alternate levels
	level [2][]split // nodes of alternate levels
}

// split is one node of the level being split: its rows in sampled order,
// their sums, the scan's running left sums and the best split seen so far.
type split struct {
	idx          int // index in tree.nodes
	rows         []int
	g, h, parent float64
	gl, hl, prev float64
	gain, thresh float64
	feat         int
}

func newGrower(m *Model, x [][]float64) (*grower, error) {
	n, d := len(x), len(x[0])
	if d == 0 {
		return nil, errors.New("xgb: training rows have no features")
	}
	g := &grower{m: m, n: n, val: make([]float64, d*n), order: make([]int32, d*n),
		grads: make([]float64, n), slot: make([]int32, n)}
	for r, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("xgb: row %d has %d features, row 0 has %d", r, len(row), d)
		}
		for f, v := range row {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("xgb: row %d feature %d is NaN", r, f)
			}
			g.val[f*n+r] = v
		}
		g.slot[r] = -1
	}
	for f := 0; f < d; f++ {
		val, order := g.val[f*n:(f+1)*n], g.order[f*n:(f+1)*n]
		for r := range order {
			order[r] = int32(r)
		}
		// Stable from ascending rows: ties inside a column are broken by row.
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(val[a], val[b]) })
	}
	g.rows[0], g.rows[1] = make([]int, n), make([]int, n)
	return g, nil
}

// buildTree grows one regression tree level by level (exact greedy): every
// sampled column is walked once per level in its sorted order, each row
// advancing the scan of the node it sits in, so a node sees the candidates
// it would see had its own rows been sorted, in the same order.
func (g *grower) buildTree(rows, cols []int) tree {
	cfg, n, slot, grads := &g.m.cfg, g.n, g.slot, g.grads
	t := tree{nodes: make([]node, 1)}
	leaf := func(s *split) {
		t.nodes[s.idx] = g.m.makeLeaf(s.g, s.h)
		for _, r := range s.rows {
			slot[r] = -1
		}
	}
	g.level[0] = append(g.level[0][:0], split{rows: rows})
	for depth := 0; len(g.level[depth&1]) > 0; depth++ {
		open := g.level[depth&1][:0]
		for _, s := range g.level[depth&1] {
			s.g, s.h = sums(grads, s.rows)
			if depth >= cfg.MaxDepth || len(s.rows) < 2 {
				leaf(&s)
				continue
			}
			s.parent = s.g * s.g / (s.h + cfg.Lambda)
			for _, r := range s.rows {
				slot[r] = int32(len(open))
			}
			open = append(open, s)
		}
		if len(open) == 0 {
			break
		}
		for _, f := range cols {
			val, order := g.val[f*n:(f+1)*n], g.order[f*n:(f+1)*n]
			if val[order[0]] == val[order[n-1]] {
				continue // a constant column separates no two rows
			}
			for i := range open {
				open[i].gl, open[i].hl = 0, 0
			}
			for _, r := range order {
				if slot[r] < 0 {
					continue
				}
				s, v := &open[slot[r]], val[r]
				if s.hl > 0 && v != s.prev {
					gr, hr := s.g-s.gl, s.h-s.hl
					if s.hl >= cfg.MinChildWeight && hr >= cfg.MinChildWeight {
						sc := 0.5*(s.gl*s.gl/(s.hl+cfg.Lambda)+gr*gr/(hr+cfg.Lambda)-s.parent) - cfg.Gamma
						if sc > s.gain {
							s.gain, s.feat, s.thresh = sc, f, (s.prev+v)/2
						}
					}
				}
				s.gl += grads[r]
				s.hl += 1
				s.prev = v
			}
		}
		// Children take their rows in the parent's order and their numbers
		// in the order a breadth-first queue would hand them out.
		next, dst := g.level[(depth+1)&1][:0], g.rows[depth&1]
		for i := range open {
			s := &open[i]
			val, nl := g.val[s.feat*n:(s.feat+1)*n], 0
			for _, r := range s.rows {
				if val[r] < s.thresh {
					nl++
				}
			}
			if s.gain <= 0 || nl == 0 || nl == len(s.rows) {
				leaf(s)
				continue
			}
			left, right := dst[:0:nl], dst[nl:nl:len(s.rows)]
			for _, r := range s.rows {
				if val[r] < s.thresh {
					left = append(left, r)
				} else {
					right = append(right, r)
				}
			}
			dst = dst[len(s.rows):]
			li := len(t.nodes)
			t.nodes = append(t.nodes, node{}, node{})
			t.nodes[s.idx] = node{feat: s.feat, thresh: s.thresh, left: li, right: li + 1}
			next = append(next, split{idx: li, rows: left}, split{idx: li + 1, rows: right})
		}
		g.level[(depth+1)&1] = next
	}
	return t
}

// makeLeaf computes the regularized leaf weight with shrinkage applied:
// w = −soft(G, α) / (H + λ) · η.
func (m *Model) makeLeaf(g, h float64) node {
	gSoft := g
	if m.cfg.Alpha > 0 {
		switch {
		case g > m.cfg.Alpha:
			gSoft = g - m.cfg.Alpha
		case g < -m.cfg.Alpha:
			gSoft = g + m.cfg.Alpha
		default:
			gSoft = 0
		}
	}
	return node{isLeaf: true, leaf: -gSoft / (h + m.cfg.Lambda) * m.cfg.LearningRate}
}

func sums(grads []float64, rows []int) (g, h float64) {
	for _, r := range rows {
		g += grads[r]
		h += 1
	}
	return g, h
}

// Predict implements predictor.Predictor.
func (m *Model) Predict(x []float64) float64 {
	s := m.base
	for i := range m.trees {
		s += m.trees[i].predict(x)
	}
	return s
}

// PredictBatch implements predictor.Predictor.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

// NumTrees reports the fitted ensemble size.
func (m *Model) NumTrees() int { return len(m.trees) }
