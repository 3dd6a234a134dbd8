package gbt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml/dataset"
)

// TestPredictAllMatchesPredict pins the flat-forest batch path to the
// per-row traversal: the blocked walk accumulates trees in ensemble order,
// so the two must agree bit for bit on every row.
func TestPredictAllMatchesPredict(t *testing.T) {
	d := makeDataset(t, 1000, 51, func(x []float64) float64 {
		return x[0]*x[1]/4 + math.Sin(x[2])
	}, 0.2, 3)
	for _, bins := range []int{0, 256} {
		p := DefaultParams()
		p.Bins = bins
		m, err := Train(d, p)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := m.PredictAll(d)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range d.X {
			want, err := m.Predict(row)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != want {
				t.Fatalf("bins=%d row %d: PredictAll %v != Predict %v", bins, i, batch[i], want)
			}
		}
	}
}

// TestPredictAllWorkerInvariance checks the batch fan-out writes disjoint
// ranges: any worker count produces the identical output slice.
func TestPredictAllWorkerInvariance(t *testing.T) {
	d := makeDataset(t, 1500, 52, func(x []float64) float64 { return 2*x[0] - x[1] }, 0.1, 2)
	p := DefaultParams()
	p.Workers = 1
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.PredictAll(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		m.params.Workers = workers
		got, err := m.PredictAll(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d row %d: %v != %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestPredictAllErrors(t *testing.T) {
	var m Model
	d := makeDataset(t, 10, 53, func(x []float64) float64 { return x[0] }, 0, 2)
	if _, err := m.PredictAll(d); err == nil {
		t.Error("untrained model must refuse PredictAll")
	}
	tm, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	narrow := makeDataset(t, 5, 54, func(x []float64) float64 { return x[0] }, 0, 1)
	if _, err := tm.PredictAll(narrow); err == nil {
		t.Error("feature-count mismatch must error")
	}
}

// specialValues are the inputs where a float comparison can disagree
// with a careless rewrite of it: NaN (never <= anything, so it goes
// right), the infinities, and both zeros (equal under <=).
var specialValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}

// handForest builds a model from explicit pre-order trees: a single
// leaf, a stump, a lopsided depth-3 chain whose leaves sit at depths 1,
// 2 and 3, and splits whose thresholds are themselves ±0 and ±Inf.
func handForest() *Model {
	leaf := func(w float64) node { return node{feature: -1, weight: w} }
	split := func(f int32, t float64, l, r int32) node {
		return node{feature: f, threshold: t, left: l, right: r}
	}
	m := &Model{
		Base:  0.25,
		Names: []string{"a", "b", "c"},
		trees: []tree{
			{nodes: []node{leaf(1.5)}},
			{nodes: []node{split(0, 0, 1, 2), leaf(-1), leaf(2)}},
			{nodes: []node{
				split(1, 0.5, 1, 2),
				leaf(3),
				split(2, math.Copysign(0, -1), 3, 4),
				leaf(-4),
				split(0, math.Inf(1), 5, 6),
				leaf(5),
				leaf(-6),
			}},
			{nodes: []node{
				split(2, math.Inf(-1), 1, 4),
				split(0, -1, 2, 3),
				leaf(0.125),
				leaf(-0.125),
				leaf(7),
			}},
			{nodes: []node{leaf(-0.5)}},
		},
	}
	m.buildFlat()
	return m
}

// TestPredictBatchMatchesPredictSpecial pins the blocked float walker to
// per-row Predict on every row, for trained and hand-built forests, on
// inputs full of NaN, ±Inf and ±0, across batch sizes that leave partial
// blocks and cross the parallel fan-out.
func TestPredictBatchMatchesPredictSpecial(t *testing.T) {
	d := makeDataset(t, 700, 55, func(x []float64) float64 {
		return x[0]*x[1] - math.Cos(x[2])
	}, 0.1, 3)
	p := DefaultParams()
	p.Rounds = 60
	p.MaxDepth = 6
	trained, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(56))
	rows := make([][]float64, 0, 1100)
	for _, x := range d.X {
		rows = append(rows, append([]float64(nil), x...))
	}
	for len(rows) < cap(rows) {
		x := make([]float64, 3)
		for j := range x {
			switch rng.Intn(3) {
			case 0:
				x[j] = specialValues[rng.Intn(len(specialValues))]
			case 1:
				x[j] = d.X[rng.Intn(d.Len())][j]
			default:
				x[j] = rng.NormFloat64() * 4
			}
		}
		rows = append(rows, x)
	}
	for _, tc := range []struct {
		name string
		m    *Model
	}{{"trained", trained}, {"hand", handForest()}} {
		for _, workers := range []int{1, 4} {
			tc.m.params.Workers = workers
			for _, n := range []int{1, 2, codeBlock - 1, codeBlock + 1, len(rows)} {
				out := make([]float64, n)
				if err := tc.m.PredictBatch(rows[:n], out); err != nil {
					t.Fatal(err)
				}
				for i, x := range rows[:n] {
					want, err := tc.m.Predict(x)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s workers=%d n=%d row %d %v: PredictBatch %v != Predict %v",
							tc.name, workers, n, i, x, out[i], want)
					}
				}
			}
		}
		ds, err := dataset.New([]string{"a", "b", "c"}, rows, make([]float64, len(rows)))
		if err != nil {
			t.Fatal(err)
		}
		all, err := tc.m.PredictAll(ds)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range rows {
			if want, _ := tc.m.Predict(x); math.Float64bits(all[i]) != math.Float64bits(want) {
				t.Fatalf("%s row %d: PredictAll %v != Predict %v", tc.name, i, all[i], want)
			}
		}
	}
}

// TestPredictBatchWideRows covers models wider than the walker's stack
// block, where the gather falls back to a heap block.
func TestPredictBatchWideRows(t *testing.T) {
	const nf = floatStackFeatures + 5
	d := makeDataset(t, 300, 57, func(x []float64) float64 { return x[0] - x[nf-1] }, 0.1, nf)
	p := DefaultParams()
	p.Rounds = 20
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.PredictAll(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range d.X {
		if want, _ := m.Predict(x); out[i] != want {
			t.Fatalf("row %d: PredictAll %v != Predict %v", i, out[i], want)
		}
	}
}
