// Package gbt implements gradient-boosted regression trees with the
// regularized objective of XGBoost (Chen & Guestrin 2016), the nonlinear
// model the paper uses throughout §5.2–§5.5: at each round a new decision
// tree is fitted to the gradient of the loss on the current ensemble's
// predictions, leaf weights are shrunk by a learning rate, and the
// regularization terms λ (L2 on leaf weights) and γ (per-leaf penalty)
// control complexity. Splits are found by the exact greedy algorithm:
// every feature, every cut point, maximizing the structure-score gain
//
//	gain = ½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ
//
// For squared-error loss the gradient is (ŷ−y) and the hessian is 1.
// Feature importance is the total gain contributed by each feature across
// all splits, averaged over trees — exactly the importance Figure 12 plots.
//
// # Performance
//
// The exact greedy search is implemented with per-feature presorting:
// every feature column is argsorted once per Train (ties broken by row
// index, so the order is a deterministic total order), and tree growth
// partitions those sorted index lists against a left/right membership
// bitmap instead of re-sorting at every node. Split scans across features
// run on a bounded worker pool; the winning split is reduced in feature
// order with a strict-improvement rule, so the lowest feature index wins
// on equal gain no matter how many workers ran. Trees are flat arrays of
// nodes in pre-order (the same layout the JSON serialization uses), which
// keeps Predict's pointer chasing inside one cache-friendly slice.
//
// The naive per-node sorting search lives on as the equivalence tests'
// reference finder: both searches visit candidate splits in the same
// deterministic order and accumulate gradient sums in the same sequence,
// so they produce bit-identical trees, predictions, and importances.
//
// A third path, selected with Params.Bins > 0, quantizes features into at
// most 256 bins and searches splits over per-bin gradient histograms (see
// hist.go), visiting only the bins a node's rows occupy: deterministic,
// much faster, and within tolerance of — but not bit-identical to — the
// exact search. Batch inference runs over a flat structure-of-arrays
// forest with pool-parallel row batches (forest.go).
package gbt

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

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
	Workers        int     // split-search goroutines (0 = GOMAXPROCS)

	// Bins selects the split-search algorithm. 0 (the default) is the
	// exact presorted search, the golden reference path. 2..256 quantizes
	// every feature into at most Bins quantile bins once per training run
	// and searches splits over per-bin gradient histograms with the
	// parent-minus-child subtraction trick (see hist.go) — the same
	// trade XGBoost's hist method makes: typically >2x faster, results
	// within tolerance of exact but not bit-identical to it.
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
	if p.Bins < 0 {
		p.Bins = 0
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
	flat   *forest  // SoA layout for batch inference (see forest.go)
	code   *cforest // quantized layout for code-space inference (see cforest.go)
	params Params

	// Histogram-training provenance, persisted by Save so a binned model
	// round-trips: the quantization level and the per-feature cut points
	// the trainer derived. Zero/nil for exact-trained models.
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

// Bins reports the quantization level the model was trained with
// (0 = exact presorted training).
func (m *Model) Bins() int { return m.bins }

// Train fits a boosted ensemble on d with parameters p. Bins > 0 selects
// histogram-binned training: d is quantized once (dataset.Bin) and trees
// grow over per-bin gradient histograms; Bins = 0 keeps the exact
// presorted search.
func Train(d *dataset.Dataset, p Params) (*Model, error) {
	if p.Bins > 0 {
		bd, err := dataset.Bin(d, p.Bins)
		if err != nil {
			return nil, err
		}
		return TrainBinned(bd, nil, p)
	}
	n := d.Len()
	if n == 0 {
		return nil, dataset.ErrEmpty
	}
	if d.NumFeatures() == 0 {
		return nil, fmt.Errorf("gbt: no features")
	}
	p.fillDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	base := 0.0
	for _, y := range d.Y {
		base += y
	}
	base /= float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}

	m := &Model{Base: base, Names: append([]string(nil), d.Names...), params: p}
	grad := make([]float64, n)
	hess := make([]float64, n)

	b := newBuilder(d.X, d.NumFeatures(), p)

	// With no subsampling the row/column identity lists are loop
	// invariants: compute them once instead of once per round.
	var allRows, allCols []int
	if p.SubsampleRows >= 1 {
		allRows = identity(n)
	}
	if p.SubsampleCols >= 1 {
		allCols = identity(d.NumFeatures())
	}
	var rowSample, colSample subsampler

	// Telemetry instruments; all nil (no-op) when p.Metrics is unset, so
	// the only cost the uninstrumented path pays is the measure branch.
	measure := p.Metrics != nil
	treesBuilt := p.Metrics.Counter("gbt.trees_built")
	splitNS := p.Metrics.Counter("gbt.split_search_ns")
	treeMS := p.Metrics.Histogram("gbt.tree_build_ms", obs.ExpBuckets(0.25, 2, 14))

	m.trees = make([]tree, 0, p.Rounds)
	for round := 0; round < p.Rounds; round++ {
		for i := range grad {
			grad[i] = pred[i] - d.Y[i] // squared loss gradient
			hess[i] = 1
		}
		rows := allRows
		if rows == nil {
			rows = rowSample.draw(n, p.SubsampleRows, rng)
		}
		cols := allCols
		if cols == nil {
			cols = colSample.draw(d.NumFeatures(), p.SubsampleCols, rng)
		}
		var t0 time.Time
		if measure {
			t0 = time.Now()
		}
		t := b.build(rows, cols, grad, hess)
		if measure {
			treeMS.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
			treesBuilt.Inc()
		}
		m.trees = append(m.trees, t)
		for i, row := range d.X {
			pred[i] += t.predict(row)
		}
	}
	if measure {
		splitNS.Add(b.splitNS)
	}
	m.buildFlat()
	return m, nil
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
