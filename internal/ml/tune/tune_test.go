package tune

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
	"repro/internal/stats"
)

func makeData(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := rng.Float64()*10 + 1
		b := rng.Float64() * 5
		x[i] = []float64{a, b}
		y[i] = a*3 + b*b + rng.NormFloat64()*0.5
	}
	d, err := dataset.New([]string{"a", "b"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGridExpand(t *testing.T) {
	g := Grid{Rounds: []int{50, 100}, MaxDepth: []int{3}, LearningRate: []float64{0.1, 0.2}}
	got := g.expand()
	if len(got) != 4 {
		t.Fatalf("expanded to %d candidates, want 4", len(got))
	}
	// Unlisted dimensions fall back to defaults.
	def := gbt.DefaultParams()
	for _, p := range got {
		if p.Lambda != def.Lambda || p.SubsampleRows != def.SubsampleRows {
			t.Errorf("defaults not applied: %+v", p)
		}
	}
}

func TestGridExpandEmptyUsesDefaults(t *testing.T) {
	got := Grid{}.expand()
	if len(got) != 1 {
		t.Fatalf("empty grid should expand to exactly the default, got %d", len(got))
	}
}

func TestKFoldPartition(t *testing.T) {
	d := makeData(t, 50, 1)
	folds := kfold(d, 5, 7)
	if len(folds) != 5 {
		t.Fatalf("got %d folds", len(folds))
	}
	totalValid := 0
	for _, f := range folds {
		if len(f.trainIdx)+f.valid.Len() != d.Len() {
			t.Fatalf("fold does not partition: %d + %d != %d", len(f.trainIdx), f.valid.Len(), d.Len())
		}
		totalValid += f.valid.Len()
	}
	if totalValid != d.Len() {
		t.Fatalf("validation folds cover %d of %d", totalValid, d.Len())
	}
}

func TestPermutationIsPermutation(t *testing.T) {
	p := permutation(100, 3)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p[:10])
		}
		seen[v] = true
	}
	// Deterministic.
	q := permutation(100, 3)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("permutation not deterministic")
		}
	}
	// Different seeds differ.
	r := permutation(100, 4)
	same := true
	for i := range p {
		if p[i] != r[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical permutations")
	}
}

func TestSearchFindsReasonableModel(t *testing.T) {
	d := makeData(t, 300, 2)
	g := Grid{Rounds: []int{50, 150}, MaxDepth: []int{2, 4}, LearningRate: []float64{0.1}}
	res, err := Search(d, g, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 4 {
		t.Fatalf("scored %d candidates, want 4", len(res.Scores))
	}
	if math.IsInf(res.BestScore, 1) || res.BestScore <= 0 {
		t.Fatalf("best score %g", res.BestScore)
	}
	// The winner's score is the minimum.
	for _, s := range res.Scores {
		if s.MdAPE < res.BestScore {
			t.Errorf("candidate %.3f beats reported best %.3f", s.MdAPE, res.BestScore)
		}
	}
	// Depth-4/150-round should beat depth-2/50-round on a curved target.
	if res.Best.MaxDepth == 2 && res.Best.Rounds == 50 {
		t.Error("search picked the weakest configuration on a nonlinear target")
	}
}

// TestSearchDeterministic runs the same search on the worker pool and on
// one goroutine: the fits finish in different orders, but every score
// and the winner must be identical.
func TestSearchDeterministic(t *testing.T) {
	d := makeData(t, 150, 3)
	g := Grid{Rounds: []int{40}, MaxDepth: []int{3, 5}, LearningRate: []float64{0.1, 0.2}}
	r1, err := Search(d, g, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	r2, err := Search(d, g, 3, 9)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("search not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestSearchTooFewSamples(t *testing.T) {
	d := makeData(t, 4, 4)
	if _, err := Search(d, DefaultGrid(), 5, 1); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("got %v, want ErrTooFewSamples", err)
	}
}

func TestTrainBestUsableModel(t *testing.T) {
	d := makeData(t, 300, 5)
	m, res, err := TrainBest(d, Grid{Rounds: []int{80}, MaxDepth: []int{3, 4}}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.PredictAll(d)
	if err != nil {
		t.Fatal(err)
	}
	md, _ := stats.MdAPE(d.Y, pred)
	if md > res.BestScore*2 {
		t.Errorf("full-fit training MdAPE %.2f far above CV score %.2f", md, res.BestScore)
	}
}

// TestSharedBinningCacheBitIdentical pins the shared-cache contract: a
// search whose candidates reuse one dataset.Binned (built once from the
// full dataset, row-subset per fold) must score every candidate exactly
// as if each fold of each grid point had re-binned from scratch.
func TestSharedBinningCacheBitIdentical(t *testing.T) {
	d := makeData(t, 240, 8)
	g := Grid{Rounds: []int{40, 80}, MaxDepth: []int{3, 4}, Bins: []int{64}}
	const folds, seed = 3, 21

	res, err := Search(d, g, folds, seed)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same folds and candidates, but a fresh Bin call per
	// (candidate, fold) pair — the quadratic-cost layout the cache avoids.
	splits := kfold(d, folds, seed)
	for ci, cand := range g.expand() {
		cand.Seed = seed
		var sum float64
		for _, f := range splits {
			bd, err := dataset.Bin(d, cand.Bins)
			if err != nil {
				t.Fatal(err)
			}
			m, err := gbt.TrainBinned(bd, f.trainIdx, cand)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := m.PredictAll(f.valid)
			if err != nil {
				t.Fatal(err)
			}
			md, err := stats.MdAPE(f.valid.Y, pred)
			if err != nil {
				t.Fatal(err)
			}
			sum += md
		}
		want := sum / folds
		if got := res.Scores[ci].MdAPE; got != want {
			t.Errorf("candidate %d: cached score %v != per-point binning %v", ci, got, want)
		}
	}
}

// TestTrainBestBinnedGrid checks a Bins-constrained grid flows through to
// the final full-dataset fit: the returned model is histogram-trained.
func TestTrainBestBinnedGrid(t *testing.T) {
	d := makeData(t, 200, 9)
	g := Grid{Rounds: []int{60}, MaxDepth: []int{3, 4}, Bins: []int{128}}
	m, res, err := TrainBest(d, g, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Bins != 128 {
		t.Errorf("winning candidate Bins = %d, want 128", res.Best.Bins)
	}
	if m.Bins() == 0 {
		t.Error("TrainBest final fit did not use histogram training")
	}
	pred, err := m.PredictAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if md, _ := stats.MdAPE(d.Y, pred); md > res.BestScore*2 {
		t.Errorf("binned full fit MdAPE %.2f far above CV score %.2f", md, res.BestScore)
	}
}

func TestTunedAtLeastCloseToDefault(t *testing.T) {
	// On held-out data, the tuned model should be at least comparable to
	// the default configuration (allow a small margin for CV noise).
	d := makeData(t, 600, 6)
	train, test := d.Split(0.7, 13)

	defModel, err := gbt.Train(train, gbt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defPred, _ := defModel.PredictAll(test)
	defMd, _ := stats.MdAPE(test.Y, defPred)

	tuned, _, err := TrainBest(train, DefaultGrid(), 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	tunedPred, _ := tuned.PredictAll(test)
	tunedMd, _ := stats.MdAPE(test.Y, tunedPred)

	if tunedMd > defMd*1.3 {
		t.Errorf("tuned MdAPE %.3f much worse than default %.3f", tunedMd, defMd)
	}
}
