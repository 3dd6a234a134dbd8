package gbt

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ml/dataset"
	"repro/internal/stats"
)

func makeDataset(t *testing.T, n int, seed int64, f func(x []float64) float64, noise float64, p int) *dataset.Dataset {
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
			row[j] = rng.Float64()*10 - 5
		}
		x[i] = row
		y[i] = f(row) + noise*rng.NormFloat64()
	}
	d, err := dataset.New(names, x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrainFitsStepFunction(t *testing.T) {
	d := makeDataset(t, 400, 1, func(x []float64) float64 {
		if x[0] > 0 {
			return 10
		}
		return -10
	}, 0, 2)
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
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

func TestTrainFitsInteraction(t *testing.T) {
	// XOR-style interaction no linear model can express.
	d := makeDataset(t, 2000, 2, func(x []float64) float64 {
		if (x[0] > 0) != (x[1] > 0) {
			return 5
		}
		return -5
	}, 0.1, 2)
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    []float64
		want float64
	}{
		{[]float64{2, 2}, -5},
		{[]float64{-2, -2}, -5},
		{[]float64{2, -2}, 5},
		{[]float64{-2, 2}, 5},
	}
	for _, c := range cases {
		got, _ := m.Predict(c.x)
		if math.Abs(got-c.want) > 1.5 {
			t.Errorf("Predict(%v) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestTrainBeatsMeanOnSmooth(t *testing.T) {
	d := makeDataset(t, 800, 3, func(x []float64) float64 {
		return 3*x[0] + math.Sin(x[1]) + x[2]*x[2]/5
	}, 0.2, 3)
	train, test := d.Split(0.75, 7)
	m, err := Train(train, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	preds, _ := m.PredictAll(test)
	rmse, _ := stats.RMSE(test.Y, preds)
	sd := stats.StdDev(test.Y)
	if rmse > sd/3 {
		t.Errorf("test RMSE %.3f vs target sd %.3f: model barely better than mean", rmse, sd)
	}
}

func TestImportanceIdentifiesSignal(t *testing.T) {
	// Only feature 0 matters; importance must concentrate there.
	d := makeDataset(t, 500, 4, func(x []float64) float64 { return 4 * x[0] }, 0.1, 4)
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importance()
	if imp["a"] < 0.8 {
		t.Errorf("importance of the only informative feature = %.3f, want >= 0.8 (all: %v)", imp["a"], imp)
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("importance sums to %g, want 1", total)
	}
}

func TestTrainDeterministic(t *testing.T) {
	d := makeDataset(t, 300, 5, func(x []float64) float64 { return x[0] - x[1] }, 0.3, 2)
	p := DefaultParams()
	p.Seed = 99
	m1, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{1.7, -2.3}
	v1, _ := m1.Predict(probe)
	v2, _ := m2.Predict(probe)
	if v1 != v2 {
		t.Errorf("same seed, different predictions: %g vs %g", v1, v2)
	}
}

func TestTrainConstantTarget(t *testing.T) {
	d := makeDataset(t, 50, 6, func([]float64) float64 { return 42 }, 0, 2)
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Predict([]float64{0, 0})
	if math.Abs(got-42) > 1e-9 {
		t.Errorf("constant target predicted as %g", got)
	}
	if len(m.Importance()) != 0 {
		t.Error("constant target should yield no importances")
	}
}

func TestTrainSingleSample(t *testing.T) {
	d, _ := dataset.New([]string{"a"}, [][]float64{{1}}, []float64{5})
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Predict([]float64{1})
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("single sample predicted as %g", got)
	}
}

func TestTrainErrors(t *testing.T) {
	empty := &dataset.Dataset{Names: []string{"a"}}
	if _, err := Train(empty, DefaultParams()); !errors.Is(err, dataset.ErrEmpty) {
		t.Errorf("got %v, want ErrEmpty", err)
	}
	noFeat := &dataset.Dataset{X: [][]float64{{}}, Y: []float64{1}}
	if _, err := Train(noFeat, DefaultParams()); err == nil {
		t.Error("no features should error")
	}
}

func TestPredictErrors(t *testing.T) {
	var m Model
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrNotTrained) {
		t.Error("untrained model must refuse to predict")
	}
	d := makeDataset(t, 50, 7, func(x []float64) float64 { return x[0] }, 0, 2)
	tm, _ := Train(d, DefaultParams())
	if _, err := tm.Predict([]float64{1}); err == nil {
		t.Error("wrong-width vector should error")
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	p.fillDefaults()
	def := DefaultParams()
	if p.Rounds != def.Rounds || p.MaxDepth != def.MaxDepth || p.LearningRate != def.LearningRate {
		t.Errorf("fillDefaults gave %+v", p)
	}
}

func TestSubsamplingStillLearns(t *testing.T) {
	d := makeDataset(t, 600, 8, func(x []float64) float64 { return 2 * x[0] }, 0.2, 3)
	p := DefaultParams()
	p.SubsampleRows = 0.5
	p.SubsampleCols = 0.7
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Predict([]float64{2, 0, 0})
	if math.Abs(got-4) > 1.0 {
		t.Errorf("subsampled model Predict = %g, want ~4", got)
	}
}

func TestMoreRoundsReduceTrainingError(t *testing.T) {
	d := makeDataset(t, 400, 9, func(x []float64) float64 {
		return x[0]*x[1]/3 + x[2]
	}, 0.1, 3)
	errAt := func(rounds int) float64 {
		p := DefaultParams()
		p.Rounds = rounds
		m, err := Train(d, p)
		if err != nil {
			t.Fatal(err)
		}
		preds, _ := m.PredictAll(d)
		rmse, _ := stats.RMSE(d.Y, preds)
		return rmse
	}
	few := errAt(10)
	many := errAt(200)
	if many >= few {
		t.Errorf("200 rounds RMSE %.4f not below 10 rounds RMSE %.4f", many, few)
	}
}

func TestGammaPrunesSplits(t *testing.T) {
	d := makeDataset(t, 300, 10, func(x []float64) float64 { return x[0] }, 1.0, 2)
	strict := DefaultParams()
	strict.Gamma = 1e12 // no split can pay for itself
	m, err := Train(d, strict)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Importance()) != 0 {
		t.Error("with huge gamma every tree should be a stump with no splits")
	}
}

func TestNumTrees(t *testing.T) {
	d := makeDataset(t, 60, 11, func(x []float64) float64 { return x[0] }, 0, 1)
	p := DefaultParams()
	p.Rounds = 37
	m, _ := Train(d, p)
	if m.NumTrees() != 37 {
		t.Errorf("NumTrees = %d, want 37", m.NumTrees())
	}
}

// TestSubsamplerMatchesPerm pins the subsampler to the draw it replaces:
// the sorted first k entries of rand.Perm on the same RNG stream, with
// the stream left in the same state after every draw.
func TestSubsamplerMatchesPerm(t *testing.T) {
	var s subsampler
	got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for _, c := range []struct {
		n    int
		frac float64
	}{{450, 0.9}, {450, 0.9}, {450, 0.5}, {14, 0.7}, {3, 0.1}, {450, 0.9}} {
		rows := s.draw(c.n, c.frac, got)
		k := int(c.frac * float64(c.n))
		if k < 1 {
			k = 1
		}
		ref := want.Perm(c.n)[:k]
		sort.Ints(ref)
		if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("n=%d frac=%g: draw %v, want %v", c.n, c.frac, rows, ref)
		}
		member := make([]bool, c.n)
		for _, i := range ref {
			member[i] = true
		}
		if !reflect.DeepEqual(s.in, member) {
			t.Fatalf("n=%d frac=%g: membership marker disagrees with the draw", c.n, c.frac)
		}
	}
	if got.Int63() != want.Int63() {
		t.Error("subsampler left the RNG stream out of step with rand.Perm")
	}
}
