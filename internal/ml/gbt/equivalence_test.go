package gbt

// Golden-equivalence tests: the presorted, bitmap-partitioned, parallel
// split search must produce bit-identical ensembles to the naive
// reference finder (refGrow, below) — same feature, threshold, weight, and
// gain at every node, same importances, same predictions. Not "close":
// equal.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ml/dataset"
)

// trainReference trains an exact model with refGrow growing every tree,
// installed through testHookGrow for the duration of the call.
func trainReference(d *dataset.Dataset, p Params) (*Model, error) {
	testHookGrow = func(b *builder, w *flatWriter, rows, cols []int, grad, hess []float64) {
		b.refGrow(w, rows, cols, grad, hess, 0)
	}
	defer func() { testHookGrow = nil }()
	p.Bins = 0
	return Train(d, p)
}

// equivDataset builds a seeded dataset; quantize > 0 snaps feature values
// onto a coarse grid so that columns are riddled with exact ties, the
// case where an unstable candidate order would diverge first.
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

// assertModelsIdentical compares two ensembles structurally, field by
// field, and fails on the first differing node.
func assertModelsIdentical(t *testing.T, got, want *Model) {
	t.Helper()
	if got.Base != want.Base {
		t.Fatalf("Base differs: %v vs %v", got.Base, want.Base)
	}
	if len(got.trees) != len(want.trees) {
		t.Fatalf("tree count differs: %d vs %d", len(got.trees), len(want.trees))
	}
	for ti := range got.trees {
		g, w := got.trees[ti].nodes, want.trees[ti].nodes
		if len(g) != len(w) {
			t.Fatalf("tree %d: node count %d vs %d", ti, len(g), len(w))
		}
		for ni := range g {
			if g[ni] != w[ni] {
				t.Fatalf("tree %d node %d differs:\noptimized: %+v\nreference: %+v", ti, ni, g[ni], w[ni])
			}
		}
	}
	if !reflect.DeepEqual(got.Importance(), want.Importance()) {
		t.Fatalf("importances differ:\noptimized: %v\nreference: %v", got.Importance(), want.Importance())
	}
}

func TestOptimizedMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		n, p     int
		seed     int64
		quantize float64
		mutate   func(*Params)
	}{
		{name: "continuous defaults", n: 400, p: 6, seed: 1},
		{name: "heavy ties", n: 400, p: 5, seed: 2, quantize: 2.0},
		{name: "all ties one column", n: 300, p: 4, seed: 3, quantize: 10.0},
		{name: "no subsampling", n: 350, p: 5, seed: 4, mutate: func(p *Params) {
			p.SubsampleRows = 1
			p.SubsampleCols = 1
		}},
		{name: "row and column subsampling", n: 500, p: 8, seed: 5, mutate: func(p *Params) {
			p.SubsampleRows = 0.6
			p.SubsampleCols = 0.5
		}},
		{name: "deep trees", n: 300, p: 4, seed: 6, mutate: func(p *Params) { p.MaxDepth = 8 }},
		{name: "gamma pruning", n: 300, p: 4, seed: 7, quantize: 1.0, mutate: func(p *Params) { p.Gamma = 0.5 }},
		{name: "min child weight", n: 300, p: 4, seed: 8, mutate: func(p *Params) { p.MinChildWeight = 25 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := equivDataset(t, tc.n, tc.p, tc.seed, tc.quantize)
			p := DefaultParams()
			p.Rounds = 30
			p.Seed = tc.seed * 11
			if tc.mutate != nil {
				tc.mutate(&p)
			}
			opt, err := Train(d, p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := trainReference(d, p)
			if err != nil {
				t.Fatal(err)
			}
			assertModelsIdentical(t, opt, ref)

			probe := equivDataset(t, 50, tc.p, tc.seed+1000, tc.quantize)
			po, err := opt.PredictAll(probe)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := ref.PredictAll(probe)
			if err != nil {
				t.Fatal(err)
			}
			for i := range po {
				if po[i] != pr[i] {
					t.Fatalf("prediction %d differs: %v vs %v", i, po[i], pr[i])
				}
			}
		})
	}
}

// TestWorkerCountInvariance pins the determinism contract of the parallel
// split search: any worker count yields the ensemble the serial scan does.
func TestWorkerCountInvariance(t *testing.T) {
	d := equivDataset(t, 400, 9, 77, 0.5)
	base := DefaultParams()
	base.Rounds = 25
	var serial *Model
	for _, workers := range []int{1, 2, 3, 8, 32} {
		p := base
		p.Workers = workers
		m, err := Train(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial = m
			continue
		}
		assertModelsIdentical(t, m, serial)
	}
}

// TestReferenceModeStillLearns guards the reference path itself against
// rot: it must remain a working trainer, not just dead weight.
func TestReferenceModeStillLearns(t *testing.T) {
	d := equivDataset(t, 400, 3, 13, 0)
	p := DefaultParams()
	p.Rounds = 40
	m, err := trainReference(d, p)
	if err != nil {
		t.Fatal(err)
	}
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

// refGrow is the reference split finder: per-node sorting, exactly the
// original O(rounds·nodes·features·n log n) algorithm, except that the
// sort breaks feature-value ties by row index so that candidate
// enumeration order — and therefore every floating-point accumulation —
// is a deterministic total order shared with the presorted search. The
// tests above assert both emit bit-identical trees.
func (b *builder) refGrow(w *flatWriter, rows []int, cols []int, grad, hess []float64, depth int) int32 {
	var gSum, hSum float64
	for _, i := range rows {
		gSum += grad[i]
		hSum += hess[i]
	}
	if depth >= b.p.MaxDepth || len(rows) < 2 {
		return w.leaf(-gSum / (hSum + b.p.Lambda) * b.p.LearningRate)
	}

	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	parentScore := gSum * gSum / (hSum + b.p.Lambda)

	x := b.x
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
			i := order[k]
			gl += grad[i]
			hl += hess[i]
			// Can't split between equal feature values.
			if x[order[k]][f] == x[order[k+1]][f] {
				continue
			}
			gr := gSum - gl
			hr := hSum - hl
			if hl < b.p.MinChildWeight || hr < b.p.MinChildWeight {
				continue
			}
			gain := 0.5*(gl*gl/(hl+b.p.Lambda)+gr*gr/(hr+b.p.Lambda)-parentScore) - b.p.Gamma
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (x[order[k]][f] + x[order[k+1]][f]) / 2
			}
		}
	}

	if bestFeat < 0 {
		return w.leaf(-gSum / (hSum + b.p.Lambda) * b.p.LearningRate)
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
		return w.leaf(-gSum / (hSum + b.p.Lambda) * b.p.LearningRate)
	}
	idx := w.reserve()
	left := b.refGrow(w, leftRows, cols, grad, hess, depth+1)
	right := b.refGrow(w, rightRows, cols, grad, hess, depth+1)
	w.nodes[idx] = node{
		feature:   int32(bestFeat),
		threshold: bestThresh,
		gain:      bestGain,
		left:      left,
		right:     right,
	}
	return idx
}
