package gbt

// The exact greedy reference trainer: every feature, every cut point,
// found by sorting each node's rows. Production trains only over
// histograms (hist.go); this oracle is what the tolerance tests
// (TestHistTracksExact, TestHistMatchesExactOnNarrowData), the
// code-space refusal tests and the exact_* model digests compare against.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ml/dataset"
)

// refTrainer holds the training matrix and filled parameters the
// reference split finder reads.
type refTrainer struct {
	x [][]float64
	p Params
}

// trainReference fits an exact greedy ensemble on d: the same boosting
// loop and subsampling draws as the production trainer, with refGrow
// growing every tree over raw feature values. Its models record no bins
// or cuts, like the files exact-trained builds wrote.
func trainReference(d *dataset.Dataset, p Params) *Model {
	p.fillDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	n, nf := d.Len(), d.NumFeatures()
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
	r := &refTrainer{x: d.X, p: p}
	allRows, allCols := identity(n), identity(nf)
	var rowSample, colSample subsampler
	for round := 0; round < p.Rounds; round++ {
		for i := range grad {
			grad[i] = pred[i] - d.Y[i]
		}
		rows, cols := allRows, allCols
		if p.SubsampleRows < 1 {
			rows = rowSample.draw(n, p.SubsampleRows, rng)
		}
		if p.SubsampleCols < 1 {
			cols = colSample.draw(nf, p.SubsampleCols, rng)
		}
		var w flatWriter
		r.refGrow(&w, rows, cols, grad, 0)
		t := tree{nodes: w.nodes}
		m.trees = append(m.trees, t)
		for i, row := range d.X {
			pred[i] += t.predict(row)
		}
	}
	m.buildFlat()
	return m
}

// equivDataset builds a seeded dataset; quantize > 0 snaps feature values
// onto a coarse grid so that columns are riddled with exact ties.
func equivDataset(t *testing.T, n, p int, seed int64, quantize float64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, p)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			v := rng.Float64()*10 - 5
			if quantize > 0 {
				v = math.Round(v/quantize) * quantize
			}
			row[j] = v
		}
		x[i] = row
		y[i] = row[0] - 2*row[p-1] + rng.NormFloat64()
	}
	d, err := dataset.New(names, x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestReferenceModeStillLearns guards the reference trainer itself against
// rot: it must remain a working trainer, not just dead weight.
func TestReferenceModeStillLearns(t *testing.T) {
	d := equivDataset(t, 400, 3, 13, 0)
	p := DefaultParams()
	p.Rounds = 40
	m := trainReference(d, p)
	probe := make([]float64, 3)
	probe[0] = 3
	probe[2] = 1
	got, err := m.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(3-2*1)) > 1.5 {
		t.Errorf("reference model Predict = %g, want ~1", got)
	}
}

// refGrow is the reference split finder: per-node sorting, the
// O(rounds·nodes·features·n log n) exact greedy algorithm, with
// feature-value ties broken by row index so that candidate enumeration
// order — and therefore every floating-point accumulation — is a
// deterministic total order. Hessians are 1 (squared loss), so hessian
// sums are row counts.
func (r *refTrainer) refGrow(w *flatWriter, rows []int, cols []int, grad []float64, depth int) int32 {
	var gSum float64
	for _, i := range rows {
		gSum += grad[i]
	}
	hSum := float64(len(rows))
	if depth >= r.p.MaxDepth || len(rows) < 2 {
		return w.leaf(-gSum / (hSum + r.p.Lambda) * r.p.LearningRate)
	}

	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	parentScore := gSum * gSum / (hSum + r.p.Lambda)

	x := r.x
	order := make([]int, len(rows))
	for _, f := range cols {
		copy(order, rows)
		sort.Slice(order, func(a, c int) bool {
			va, vc := x[order[a]][f], x[order[c]][f]
			if va != vc {
				return va < vc
			}
			return order[a] < order[c]
		})

		var gl, hl float64
		for k := 0; k < len(order)-1; k++ {
			gl += grad[order[k]]
			hl++
			// Can't split between equal feature values.
			if x[order[k]][f] == x[order[k+1]][f] {
				continue
			}
			gr := gSum - gl
			hr := hSum - hl
			if hl < r.p.MinChildWeight || hr < r.p.MinChildWeight {
				continue
			}
			gain := 0.5*(gl*gl/(hl+r.p.Lambda)+gr*gr/(hr+r.p.Lambda)-parentScore) - r.p.Gamma
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (x[order[k]][f] + x[order[k+1]][f]) / 2
			}
		}
	}

	if bestFeat < 0 {
		return w.leaf(-gSum / (hSum + r.p.Lambda) * r.p.LearningRate)
	}

	var leftRows, rightRows []int
	for _, i := range rows {
		if x[i][bestFeat] <= bestThresh {
			leftRows = append(leftRows, i)
		} else {
			rightRows = append(rightRows, i)
		}
	}
	if len(leftRows) == 0 || len(rightRows) == 0 {
		return w.leaf(-gSum / (hSum + r.p.Lambda) * r.p.LearningRate)
	}
	idx := w.reserve()
	left := r.refGrow(w, leftRows, cols, grad, depth+1)
	right := r.refGrow(w, rightRows, cols, grad, depth+1)
	w.nodes[idx] = node{
		feature:   int32(bestFeat),
		threshold: bestThresh,
		gain:      bestGain,
		left:      left,
		right:     right,
	}
	return idx
}
