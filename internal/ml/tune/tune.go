// Package tune provides k-fold cross-validated hyperparameter search for
// the gradient-boosted tree model — the paper's §8 future-work direction
// ("whether more advanced machine learning methods … can yield better
// models") made concrete: instead of a fixed configuration, search a small
// grid and keep the setting with the lowest cross-validated MdAPE.
package tune

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
	"repro/internal/pool"
	"repro/internal/stats"
)

// ErrTooFewSamples is returned when the dataset cannot support the
// requested number of folds.
var ErrTooFewSamples = errors.New("tune: too few samples for k-fold CV")

// Grid is the hyperparameter search space: the cross product of the
// listed values. Empty slices fall back to the default parameter value.
//
// Bins is the gbt quantization level per candidate (2..256, 0 = 256). It
// is usually a single value, not a searched dimension: all candidates
// with the same Bins share one dataset.Binned quantization of the full
// dataset, built once and row-subset per CV fold, so the binning cost is
// paid once for the entire folds × grid-points search.
type Grid struct {
	Rounds         []int
	MaxDepth       []int
	LearningRate   []float64
	Lambda         []float64
	SubsampleRows  []float64
	MinChildWeight []float64
	Bins           []int
}

// DefaultGrid is a compact space that covers the regimes that matter for
// transfer-rate data: shallow-vs-deep trees, slow-vs-fast learning.
func DefaultGrid() Grid {
	return Grid{
		Rounds:       []int{100, 200},
		MaxDepth:     []int{3, 4, 6},
		LearningRate: []float64{0.05, 0.1, 0.2},
		Lambda:       []float64{1},
	}
}

// expand enumerates the grid as concrete parameter sets.
func (g Grid) expand() []gbt.Params {
	base := gbt.DefaultParams()
	orDefaultI := func(xs []int, d int) []int {
		if len(xs) == 0 {
			return []int{d}
		}
		return xs
	}
	orDefaultF := func(xs []float64, d float64) []float64 {
		if len(xs) == 0 {
			return []float64{d}
		}
		return xs
	}
	var out []gbt.Params
	for _, rounds := range orDefaultI(g.Rounds, base.Rounds) {
		for _, depth := range orDefaultI(g.MaxDepth, base.MaxDepth) {
			for _, lr := range orDefaultF(g.LearningRate, base.LearningRate) {
				for _, lam := range orDefaultF(g.Lambda, base.Lambda) {
					for _, sub := range orDefaultF(g.SubsampleRows, base.SubsampleRows) {
						for _, mcw := range orDefaultF(g.MinChildWeight, base.MinChildWeight) {
							for _, bins := range orDefaultI(g.Bins, base.Bins) {
								p := base
								p.Rounds = rounds
								p.MaxDepth = depth
								p.LearningRate = lr
								p.Lambda = lam
								p.SubsampleRows = sub
								p.MinChildWeight = mcw
								p.Bins = bins
								out = append(out, p)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Result is the outcome of a search: the winning parameters and the CV
// score of every candidate.
type Result struct {
	Best      gbt.Params
	BestScore float64 // cross-validated MdAPE of the winner
	Scores    []CandidateScore
}

// CandidateScore pairs a parameter set with its cross-validated MdAPE.
type CandidateScore struct {
	Params gbt.Params
	MdAPE  float64
}

// Search evaluates every grid point with k-fold cross validation on d and
// returns the configuration minimizing mean MdAPE across folds. The search
// is deterministic in seed.
func Search(d *dataset.Dataset, g Grid, folds int, seed int64) (Result, error) {
	var res Result
	if folds < 2 {
		folds = 3
	}
	if d.Len() < folds*2 {
		return res, fmt.Errorf("%w: %d samples, %d folds", ErrTooFewSamples, d.Len(), folds)
	}
	splits := kfold(d, folds, seed)
	candidates := g.expand()
	if len(candidates) == 0 {
		return res, errors.New("tune: empty grid")
	}

	// Shared binning cache: one dataset.Binned per distinct quantization
	// level, built once from the full dataset and reused — by row-index
	// subsetting, never re-binning — across every fold of every candidate.
	cache := binCache{d: d}
	binned := make([]*dataset.Binned, len(candidates))
	for c := range candidates {
		candidates[c].Seed = seed
		bd, err := cache.get(candidates[c].Bins)
		if err != nil {
			return res, err
		}
		binned[c] = bd
	}

	// Every candidate × fold fit is one pool task on one goroutine, and
	// writes only its own slot; each candidate's fold scores are then
	// summed in fold order, so scores and Best do not depend on the
	// worker count or the order the fits finish in.
	k := len(splits)
	mdapes := make([]float64, len(candidates)*k)
	err := pool.ForEach(context.TODO(), len(mdapes), pool.Workers(), func(_ context.Context, t int) error {
		md, err := foldMdAPE(splits[t%k], candidates[t/k], binned[t/k])
		mdapes[t] = md
		return err
	})
	if err != nil {
		return res, err
	}
	res.BestScore = math.Inf(1)
	for c, params := range candidates {
		var sum float64
		for _, md := range mdapes[c*k : (c+1)*k] {
			sum += md
		}
		score := sum / float64(k)
		res.Scores = append(res.Scores, CandidateScore{Params: params, MdAPE: score})
		if score < res.BestScore {
			res.BestScore = score
			res.Best = params
		}
	}
	return res, nil
}

// binCache memoizes dataset.Bin per quantization level for one search.
type binCache struct {
	d      *dataset.Dataset
	binned map[int]*dataset.Binned
}

// get returns the shared binned matrix for the given level (0 = the
// default, dataset.MaxBins), building it on first use.
func (c *binCache) get(bins int) (*dataset.Binned, error) {
	if bins <= 0 {
		bins = dataset.MaxBins
	}
	if bd, ok := c.binned[bins]; ok {
		return bd, nil
	}
	bd, err := dataset.Bin(c.d, bins)
	if err != nil {
		return nil, err
	}
	if c.binned == nil {
		c.binned = map[int]*dataset.Binned{}
	}
	c.binned[bins] = bd
	return bd, nil
}

// fold is one train/validation split: trainIdx lists the training rows as
// indices into the full dataset, which is all training needs against a
// shared dataset.Binned without copying rows; valid is materialized for
// scoring.
type fold struct {
	valid    *dataset.Dataset
	trainIdx []int
}

// kfold deterministically partitions d into k folds.
func kfold(d *dataset.Dataset, k int, seed int64) []fold {
	n := d.Len()
	// Reuse the dataset's deterministic shuffling by splitting off each
	// fold with Subset over a shared permutation.
	perm := permutation(n, seed)
	var folds []fold
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		var trainIdx, validIdx []int
		for i, p := range perm {
			if i >= lo && i < hi {
				validIdx = append(validIdx, p)
			} else {
				trainIdx = append(trainIdx, p)
			}
		}
		folds = append(folds, fold{
			valid:    d.Subset(validIdx),
			trainIdx: trainIdx,
		})
	}
	return folds
}

// permutation is a deterministic Fisher–Yates shuffle driven by a simple
// SplitMix-style generator, so the folds do not depend on math/rand
// internals.
func permutation(n int, seed int64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// foldMdAPE trains params on one fold and returns its validation MdAPE.
// Training subsets the shared binned matrix by the fold's row indices;
// validation scores against the raw feature rows, which the binned trees
// evaluate exactly (thresholds are raw-space cut points).
func foldMdAPE(f fold, params gbt.Params, bd *dataset.Binned) (float64, error) {
	m, err := gbt.TrainBinned(bd, f.trainIdx, params)
	if err != nil {
		return 0, err
	}
	pred, err := m.PredictAll(f.valid)
	if err != nil {
		return 0, err
	}
	return stats.MdAPE(f.valid.Y, pred)
}

// TrainBest runs Search and then fits the winning configuration on the
// full dataset.
func TrainBest(d *dataset.Dataset, g Grid, folds int, seed int64) (*gbt.Model, Result, error) {
	res, err := Search(d, g, folds, seed)
	if err != nil {
		return nil, res, err
	}
	m, err := gbt.Train(d, res.Best)
	return m, res, err
}
