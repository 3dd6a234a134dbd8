// Package gbt implements gradient-boosted regression trees with the
// regularized objective of XGBoost (Chen & Guestrin 2016), the nonlinear
// model the paper uses throughout §5.2–§5.5: at each round a new decision
// tree is fitted to the gradient of the loss on the current ensemble's
// predictions, leaf weights are shrunk by a learning rate, and the
// regularization terms λ (L2 on leaf weights) and γ (per-leaf penalty)
// control complexity. Each split maximizes the structure-score gain over
// every feature and every candidate cut point
//
//	gain = ½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ
//
// For squared-error loss the gradient is (ŷ−y) and the hessian is 1.
// Feature importance is the total gain contributed by each feature across
// all splits, averaged over trees — exactly the importance Figure 12 plots.
//
// # Training
//
// Train quantizes every feature once into at most Params.Bins quantile
// bins (dataset.Bin) and grows trees over per-bin gradient histograms,
// visiting only the bins a node's rows occupy (see hist.go) — the method
// XGBoost calls "hist". It is the one trainer: deterministic for any
// worker count, and within tolerance of — but not bit-identical to — the
// exact greedy search over every cut point, which lives on only as the
// tests' reference (equivalence_test.go). Trees are flat arrays of nodes
// in pre-order (the same layout the JSON serialization uses), which keeps
// Predict's pointer chasing inside one cache-friendly slice. Batch
// inference walks a blocked, BFS-relaid float forest over row blocks,
// fanned out in pool-parallel batches (forest.go).
package gbt

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ml/dataset"
	"repro/internal/obs"
	"repro/internal/pool"
)

// ErrNotTrained is returned when prediction is attempted before training.
var ErrNotTrained = errors.New("gbt: model not trained")

// Params configures training. Zero values are replaced by defaults (see
// DefaultParams).
type Params struct {
	Rounds         int     // number of boosting rounds (trees)
	MaxDepth       int     // maximum tree depth
	LearningRate   float64 // shrinkage η applied to each tree's leaf weights
	Lambda         float64 // L2 regularization on leaf weights
	Gamma          float64 // minimum gain required to keep a split
	MinChildWeight float64 // minimum hessian sum per child (≈ min samples)
	SubsampleRows  float64 // fraction of rows sampled per tree (0,1]
	SubsampleCols  float64 // fraction of features considered per tree (0,1]
	Seed           int64   // RNG seed for subsampling
	Workers        int     // batch-inference goroutines (0 = GOMAXPROCS); each fit runs on one goroutine

	// Bins is the quantization level, 2..256: every feature is mapped
	// once per training run onto at most Bins quantile bins, and splits
	// are searched over per-bin gradient histograms (see hist.go).
	// 0 means dataset.MaxBins (256).
	Bins int

	// Metrics, when non-nil, receives training telemetry: trees built,
	// per-tree build-time histogram, and cumulative split-search time.
	// It never influences the fitted model, and the nil default costs
	// nothing on the training hot path.
	Metrics *obs.Registry
}

// DefaultParams returns the configuration used by the reproduction's
// experiments: 150 rounds of depth-4 trees with η=0.1, λ=1.
func DefaultParams() Params {
	return Params{
		Rounds:         150,
		MaxDepth:       4,
		LearningRate:   0.1,
		Lambda:         1.0,
		Gamma:          0.0,
		MinChildWeight: 1.0,
		SubsampleRows:  0.9,
		SubsampleCols:  1.0,
		Seed:           1,
	}
}

func (p *Params) fillDefaults() {
	d := DefaultParams()
	if p.Rounds <= 0 {
		p.Rounds = d.Rounds
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = d.MaxDepth
	}
	if p.LearningRate <= 0 {
		p.LearningRate = d.LearningRate
	}
	if p.Lambda < 0 {
		p.Lambda = d.Lambda
	}
	if p.MinChildWeight <= 0 {
		p.MinChildWeight = d.MinChildWeight
	}
	if p.SubsampleRows <= 0 || p.SubsampleRows > 1 {
		p.SubsampleRows = d.SubsampleRows
	}
	if p.SubsampleCols <= 0 || p.SubsampleCols > 1 {
		p.SubsampleCols = d.SubsampleCols
	}
	if p.Workers <= 0 {
		p.Workers = pool.Workers()
	}
	if p.Bins <= 0 {
		p.Bins = dataset.MaxBins
	}
}

// node is one tree node in the flat pre-order layout; leaves have
// feature == -1 and child indices 0.
type node struct {
	threshold float64 // go left when x[feature] <= threshold
	weight    float64 // leaf output (already scaled by η)
	gain      float64 // split gain (for importance)
	feature   int32   // split feature index, -1 for leaf
	left      int32   // child indices into the tree's node slice
	right     int32
}

// tree is one fitted regression tree: nodes in pre-order, root at 0.
type tree struct{ nodes []node }

func (t *tree) predict(x []float64) float64 {
	nodes := t.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.weight
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a fitted boosted ensemble.
type Model struct {
	Base   float64 // initial prediction (mean of training targets)
	Names  []string
	trees  []tree
	flat   *forest  // blocked float layout for batch inference (see forest.go)
	code   *cforest // quantized layout for code-space inference (see cforest.go)
	params Params

	// Histogram-training provenance, persisted by Save so a model
	// round-trips: the quantization level and the per-feature cut points
	// the trainer derived. Zero/nil only for models loaded from files
	// written before training was always binned.
	bins int
	cuts [][]float64

	// Accelerated row quantizer over cuts, built once wherever cuts are
	// set (training, deserialization) so every admission-path caller
	// shares the grid tables. Derived state, not persisted.
	quant *dataset.Quantizer
}

// buildQuantizer derives the shared accelerated quantizer from m.cuts.
// Called once per model right after cuts are assigned.
func (m *Model) buildQuantizer() {
	if len(m.cuts) > 0 {
		m.quant = dataset.NewQuantizer(m.cuts).Accelerate()
	}
}

// Bins reports the quantization level the model was trained with (0 for
// a model loaded from a file that records none).
func (m *Model) Bins() int { return m.bins }

// Train fits a boosted ensemble on d with parameters p: d is quantized
// once at p.Bins (dataset.Bin) and trees grow over per-bin gradient
// histograms (TrainBinned).
func Train(d *dataset.Dataset, p Params) (*Model, error) {
	p.fillDefaults()
	bd, err := dataset.Bin(d, p.Bins)
	if err != nil {
		return nil, err
	}
	return TrainBinned(bd, nil, p)
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// subsampler draws per-tree row or feature subsets into reused buffers.
// It makes exactly the Intn(i+1) draws rand.Perm makes, so a seed
// selects the set rand.Perm(n)[:k] would; the set is emitted in ascending
// order through the membership marker, which also tells the caller which
// rows a tree did not see. Callers handle the frac >= 1 identity case
// (no RNG draw) themselves.
type subsampler struct {
	perm []int
	in   []bool // in[i]: i is in the most recent draw
	out  []int
}

// draw returns a sorted subset of 0..n-1 of size max(1, ⌊frac·n⌋). The
// slice is reused by the next draw.
func (s *subsampler) draw(n int, frac float64, rng *rand.Rand) []int {
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	if len(s.perm) != n {
		s.perm = make([]int, n)
		s.in = make([]bool, n)
		s.out = make([]int, 0, n)
	}
	perm := s.perm
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	clear(s.in)
	for _, i := range perm[:k] {
		s.in[i] = true
	}
	out := s.out[:0]
	for i, ok := range s.in {
		if ok {
			out = append(out, i)
		}
	}
	s.out = out
	return out
}

// NumTrees returns the number of trees in the ensemble.
func (m *Model) NumTrees() int { return len(m.trees) }

// Predict returns the ensemble prediction for one feature vector.
func (m *Model) Predict(x []float64) (float64, error) {
	if len(m.trees) == 0 {
		return 0, ErrNotTrained
	}
	if len(x) != len(m.Names) {
		return 0, fmt.Errorf("gbt: feature vector has %d entries, want %d", len(x), len(m.Names))
	}
	out := m.Base
	for i := range m.trees {
		out += m.trees[i].predict(x)
	}
	return out, nil
}

// Importance returns per-feature importance as the total split gain
// attributed to each feature across all trees, normalized to sum to 1
// (zero map entries are omitted). This mirrors XGBoost's "gain" importance
// used in Figure 12.
func (m *Model) Importance() map[string]float64 {
	raw := make([]float64, len(m.Names))
	for ti := range m.trees {
		for _, n := range m.trees[ti].nodes {
			if n.feature >= 0 {
				raw[n.feature] += n.gain
			}
		}
	}
	var total float64
	for _, v := range raw {
		total += v
	}
	out := make(map[string]float64)
	if total == 0 {
		return out
	}
	for j, v := range raw {
		if v > 0 {
			out[m.Names[j]] = v / total
		}
	}
	return out
}
