package gbt

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/ml/dataset"
	"repro/internal/stats"
)

// histParams is DefaultParams with the histogram path selected.
func histParams(bins int) Params {
	p := DefaultParams()
	p.Bins = bins
	return p
}

// modelBytes serializes a model so two models can be compared for exact
// structural equality (thresholds, weights, gains, tree shapes).
func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHistFitsStepFunction(t *testing.T) {
	d := makeDataset(t, 400, 1, func(x []float64) float64 {
		if x[0] > 0 {
			return 10
		}
		return -10
	}, 0, 2)
	m, err := Train(d, histParams(256))
	if err != nil {
		t.Fatal(err)
	}
	if m.Bins() == 0 {
		t.Fatal("histogram-trained model reports Bins() == 0")
	}
	for _, probe := range []struct{ x, want float64 }{{3, 10}, {-3, -10}} {
		got, err := m.Predict([]float64{probe.x, 0})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-probe.want) > 0.5 {
			t.Errorf("Predict(x=%g) = %g, want %g", probe.x, got, probe.want)
		}
	}
}

// TestHistDeterministic pins the histogram path's determinism contract:
// the same data, parameters, and seed produce byte-identical models
// regardless of the worker count, including under row/column subsampling.
func TestHistDeterministic(t *testing.T) {
	d := makeDataset(t, 500, 31, func(x []float64) float64 {
		return 2*x[0] - x[1]*x[2] + math.Sin(x[3])
	}, 0.3, 4)
	for _, sub := range []float64{1.0, 0.6} {
		p := histParams(64)
		p.Seed = 7
		p.SubsampleRows = sub
		p.SubsampleCols = sub
		p.Workers = 1
		m1, err := Train(d, p)
		if err != nil {
			t.Fatal(err)
		}
		ref := modelBytes(t, m1)
		for _, workers := range []int{2, 4, 8} {
			p.Workers = workers
			m2, err := Train(d, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, modelBytes(t, m2)) {
				t.Errorf("subsample=%.1f: model differs between 1 and %d workers", sub, workers)
			}
		}
	}
}

// TestHistTracksExact pins the tolerance contract between the trainer and
// the exact reference: with 256 bins on a few-hundred-row dataset the
// candidate thresholds are nearly the exact search's, so held-out error
// must match within a small margin (the paths are NOT bit-identical).
func TestHistTracksExact(t *testing.T) {
	d := makeDataset(t, 600, 32, func(x []float64) float64 {
		return 3*x[0] + math.Sin(x[1]) + x[2]*x[2]/5
	}, 0.2, 3)
	train, test := d.Split(0.75, 9)

	exact := trainReference(train, DefaultParams())
	hist, err := Train(train, histParams(256))
	if err != nil {
		t.Fatal(err)
	}
	exactPred, _ := exact.PredictAll(test)
	histPred, _ := hist.PredictAll(test)
	exactRMSE, _ := stats.RMSE(test.Y, exactPred)
	histRMSE, _ := stats.RMSE(test.Y, histPred)
	if histRMSE > exactRMSE*1.15+0.05 {
		t.Errorf("hist RMSE %.4f too far above exact RMSE %.4f", histRMSE, exactRMSE)
	}
}

// TestTrainDispatchesToBinned checks Train(d, p) is exactly TrainBinned
// over dataset.Bin(d, p.Bins) — the convenience path and the shared-
// cache path must be the same model, byte for byte.
func TestTrainDispatchesToBinned(t *testing.T) {
	d := makeDataset(t, 300, 33, func(x []float64) float64 { return x[0] - 2*x[1] }, 0.2, 3)
	p := histParams(128)
	viaTrain, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := dataset.Bin(d, p.Bins)
	if err != nil {
		t.Fatal(err)
	}
	viaBinned, err := TrainBinned(bd, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, viaTrain), modelBytes(t, viaBinned)) {
		t.Error("Train and TrainBinned(bd, nil) built different models")
	}
}

// TestTrainBinnedView checks row-subset training on a shared binned
// matrix: deterministic, learns, and differs from full-matrix training
// only through the rows, never through re-binning.
func TestTrainBinnedView(t *testing.T) {
	d := makeDataset(t, 500, 34, func(x []float64) float64 { return 4 * x[0] }, 0.2, 2)
	bd, err := dataset.Bin(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	view := make([]int, 0, 250)
	for i := 0; i < 500; i += 2 {
		view = append(view, i)
	}
	p := histParams(256)
	m1, err := TrainBinned(bd, view, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainBinned(bd, view, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, m1), modelBytes(t, m2)) {
		t.Error("view training is not deterministic")
	}
	got, err := m1.Predict([]float64{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-8) > 1.0 {
		t.Errorf("view-trained model Predict = %g, want ~8", got)
	}
}

func TestTrainBinnedErrors(t *testing.T) {
	d := makeDataset(t, 50, 35, func(x []float64) float64 { return x[0] }, 0, 2)
	bd, err := dataset.Bin(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainBinned(bd, []int{}, DefaultParams()); !errors.Is(err, dataset.ErrEmpty) {
		t.Errorf("empty view: got %v, want ErrEmpty", err)
	}
	empty := &dataset.Binned{Names: []string{"a"}}
	if _, err := TrainBinned(empty, nil, DefaultParams()); !errors.Is(err, dataset.ErrEmpty) {
		t.Errorf("empty matrix: got %v, want ErrEmpty", err)
	}
}

func TestHistSubsamplingStillLearns(t *testing.T) {
	d := makeDataset(t, 600, 36, func(x []float64) float64 { return 2 * x[0] }, 0.2, 3)
	p := histParams(64)
	p.SubsampleRows = 0.5
	p.SubsampleCols = 0.7
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Predict([]float64{2, 0, 0})
	if math.Abs(got-4) > 1.0 {
		t.Errorf("subsampled hist model Predict = %g, want ~4", got)
	}
}

func TestHistImportanceIdentifiesSignal(t *testing.T) {
	d := makeDataset(t, 500, 37, func(x []float64) float64 { return 4 * x[0] }, 0.1, 4)
	m, err := Train(d, histParams(256))
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importance()
	if imp["a"] < 0.8 {
		t.Errorf("importance of the only informative feature = %.3f (all: %v)", imp["a"], imp)
	}
}

func TestHistConstantTarget(t *testing.T) {
	d := makeDataset(t, 50, 38, func([]float64) float64 { return 42 }, 0, 2)
	m, err := Train(d, histParams(256))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Predict([]float64{0, 0})
	if math.Abs(got-42) > 1e-9 {
		t.Errorf("constant target predicted as %g", got)
	}
}

func TestHistGammaPrunesSplits(t *testing.T) {
	d := makeDataset(t, 300, 39, func(x []float64) float64 { return x[0] }, 1.0, 2)
	p := histParams(64)
	p.Gamma = 1e12
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Importance()) != 0 {
		t.Error("with huge gamma every tree should be a stump")
	}
}

// TestHistThresholdsRespectBins checks the fitted trees store raw-space
// thresholds that never split a bin's occupied value range: every
// training value of the split feature falls strictly on one side of the
// threshold together with its whole bin, which is what keeps code-space
// traversal (used for the boosting updates) and raw-space traversal (used
// by Predict/PredictAll) in exact agreement on the training matrix.
func TestHistThresholdsRespectBins(t *testing.T) {
	d := makeDataset(t, 400, 40, func(x []float64) float64 { return x[0] * x[1] / 3 }, 0.1, 2)
	p := histParams(32)
	p.SubsampleRows = 1 // every row in every tree: in-sample fit is pinned
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := dataset.Bin(d, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range m.trees {
		for _, nd := range tr.nodes {
			if nd.feature < 0 {
				continue
			}
			f := int(nd.feature)
			for _, row := range d.X {
				v := row[f]
				code := bd.Code(f, v)
				if v <= nd.threshold && bd.Hi[f][code] > nd.threshold {
					t.Fatalf("threshold %v splits bin %d of feature %d (value %v left, bin max %v right)",
						nd.threshold, code, f, v, bd.Hi[f][code])
				}
				if v > nd.threshold && bd.Lo[f][code] <= nd.threshold {
					t.Fatalf("threshold %v splits bin %d of feature %d (value %v right, bin min %v left)",
						nd.threshold, code, f, v, bd.Lo[f][code])
				}
			}
		}
	}
}

// TestHistMatchesExactOnNarrowData: when every feature has no more
// distinct values than bins, each bin holds exactly one value and the
// histogram candidate thresholds reproduce the exact search's bit for
// bit; with no gain near-ties the two paths fit identical ensembles.
func TestHistMatchesExactOnNarrowData(t *testing.T) {
	d := makeDataset(t, 500, 41, func(x []float64) float64 { return 3*x[0] - x[1] }, 0.5, 2)
	// Quantize the features onto a coarse grid so distinct counts stay
	// far below the bin budget.
	for i := range d.X {
		for j := range d.X[i] {
			d.X[i][j] = math.Round(d.X[i][j]*4) / 4
		}
	}
	p := DefaultParams()
	p.Rounds = 30
	exact := trainReference(d, p)
	hp := histParams(256)
	hp.Rounds = 30
	hist, err := Train(d, hp)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the fitted ensembles via training-row predictions —
	// identical trees imply identical outputs.
	ep, _ := exact.PredictAll(d)
	hpred, _ := hist.PredictAll(d)
	for i := range ep {
		if math.Abs(ep[i]-hpred[i]) > 1e-9 {
			t.Fatalf("row %d: exact %v vs hist %v on narrow data", i, ep[i], hpred[i])
		}
	}
}

// TestTrainBinnedAllocsFlat pins the histogram trainer's per-round
// allocation cost: the boosting loop reuses its row sample, histogram
// pool and node writer, so a round allocates only the finished tree's
// node slice. Ninety extra rounds may add at most two objects each.
func TestTrainBinnedAllocsFlat(t *testing.T) {
	d := equivDataset(t, 700, 14, 5, 0)
	bd, err := dataset.Bin(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rounds int) float64 {
		p := histParams(256)
		p.Rounds = rounds
		return testing.AllocsPerRun(3, func() {
			if _, err := TrainBinned(bd, nil, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	lo, hi := allocs(10), allocs(100)
	if perRound := (hi - lo) / 90; perRound > 2 {
		t.Errorf("TrainBinned allocates %.1f objects per extra round (%v at 10 rounds, %v at 100), want <= 2",
			perRound, lo, hi)
	}
}

// TestHistBuildsPerTree pins the leaf-level rule: a split whose children
// sit at MaxDepth builds no child histogram, since those children can
// only be leaves. A tree therefore builds its root histogram plus one per
// internal node above depth MaxDepth−1: exactly 1 for a stump, at most
// 2^(d−1) for depth d.
func TestHistBuildsPerTree(t *testing.T) {
	d := equivDataset(t, 1500, 10, 103, 0)
	bd, err := dataset.Bin(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2, 4, 6} {
		p := histParams(256)
		p.MaxDepth = depth
		p.fillDefaults()
		hb := newHistBuilder(bd, bd.Codes, p)
		n := bd.Len()
		rows, cols := identity(n), identity(bd.NumFeatures())
		pred, grad := make([]float64, n), make([]float64, n)
		for round := 0; round < 20; round++ {
			for i := range grad {
				grad[i] = pred[i] - bd.Y[i]
			}
			before := hb.histBuilds
			tr := hb.build(rows, cols, grad, pred)
			got := hb.histBuilds - before
			// Count the internal nodes above depth MaxDepth−1.
			want := 1
			var walk func(i int32, dep int)
			walk = func(i int32, dep int) {
				nd := tr.nodes[i]
				if nd.feature < 0 {
					return
				}
				if dep+1 < depth {
					want++
				}
				walk(nd.left, dep+1)
				walk(nd.right, dep+1)
			}
			walk(0, 0)
			if got != want {
				t.Fatalf("depth %d round %d: %d histograms built, want %d", depth, round, got, want)
			}
			if limit := 1 << (depth - 1); got > limit {
				t.Fatalf("depth %d round %d: %d histograms built, want at most %d", depth, round, got, limit)
			}
			if depth == 4 && round == 0 && got != 8 {
				t.Errorf("full depth-4 tree built %d histograms, want 8", got)
			}
		}
	}
}
