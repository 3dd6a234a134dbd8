package gbt

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/ml/dataset"
)

func warmTarget(x []float64) float64 { return 3*x[0] - 2*x[1] + x[0]*x[1] }

func warmParams(rounds int) Params {
	p := DefaultParams()
	p.Rounds = rounds
	p.Bins = 64
	p.Workers = 1
	return p
}

func mse(t *testing.T, m *Model, d *dataset.Dataset) float64 {
	t.Helper()
	var sum float64
	for i, row := range d.X {
		v, err := m.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		sum += (v - d.Y[i]) * (v - d.Y[i])
	}
	return sum / float64(d.Len())
}

func saveBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTrainWarmComposesPrevAndResiduals(t *testing.T) {
	d1 := makeDataset(t, 300, 11, warmTarget, 0.1, 3)
	d2 := makeDataset(t, 300, 12, warmTarget, 0.1, 3)
	prev, err := Train(d1, warmParams(40))
	if err != nil {
		t.Fatal(err)
	}
	prevSnap := saveBytes(t, prev)

	warm, err := TrainWarm(d2, warmParams(25), prev)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.NumTrees(), prev.NumTrees()+25; got != want {
		t.Fatalf("warm model has %d trees, want %d", got, want)
	}
	if warm.Base != prev.Base {
		t.Fatalf("warm base %g != prev base %g", warm.Base, prev.Base)
	}
	// The inherited prefix reproduces prev exactly: warm minus the new
	// residual trees is prev's prediction, bit for bit.
	for i := 0; i < 20; i++ {
		x := d2.X[i]
		pv, err := prev.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		inherited := warm.Base
		for ti := 0; ti < prev.NumTrees(); ti++ {
			inherited += warm.trees[ti].predict(x)
		}
		if inherited != pv {
			t.Fatalf("row %d: inherited prefix predicts %g, prev predicts %g", i, inherited, pv)
		}
	}
	// The new rounds fit d2's residuals: warm must beat prev on d2.
	if wm, pm := mse(t, warm, d2), mse(t, prev, d2); wm >= pm {
		t.Fatalf("warm MSE %g did not improve on prev MSE %g", wm, pm)
	}
	// Warm training must not mutate the blessed model.
	if !bytes.Equal(prevSnap, saveBytes(t, prev)) {
		t.Fatal("TrainWarm mutated the previous model")
	}
}

func TestTrainWarmDeterministicAndRoundTrips(t *testing.T) {
	d1 := makeDataset(t, 200, 21, warmTarget, 0.1, 3)
	d2 := makeDataset(t, 200, 22, warmTarget, 0.1, 3)
	prev, err := Train(d1, warmParams(30))
	if err != nil {
		t.Fatal(err)
	}
	a, err := TrainWarm(d2, warmParams(20), prev)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainWarm(d2, warmParams(20), prev)
	if err != nil {
		t.Fatal(err)
	}
	ab, bb := saveBytes(t, a), saveBytes(t, b)
	if !bytes.Equal(ab, bb) {
		t.Fatal("warm training is not deterministic")
	}
	back, err := Load(bytes.NewReader(ab))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		va, _ := a.Predict(d2.X[i])
		vb, err := back.Predict(d2.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if va != vb || math.IsNaN(va) {
			t.Fatalf("round-tripped warm model diverges: %g vs %g", vb, va)
		}
	}
}

func TestTrainWarmValidation(t *testing.T) {
	d := makeDataset(t, 100, 31, warmTarget, 0.1, 3)
	prev, err := Train(d, warmParams(10))
	if err != nil {
		t.Fatal(err)
	}

	// Mismatched feature names refuse to continue.
	renamed := d.Clone()
	renamed.Names = append([]string(nil), d.Names...)
	renamed.Names[0] = "zz"
	if _, err := TrainWarm(renamed, warmParams(5), prev); err == nil || !strings.Contains(err.Error(), "feature") {
		t.Fatalf("mismatched names accepted: %v", err)
	}

	// Nil prev is a cold start, identical to Train.
	cold, err := Train(d, warmParams(10))
	if err != nil {
		t.Fatal(err)
	}
	fromNil, err := TrainWarm(d, warmParams(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, cold), saveBytes(t, fromNil)) {
		t.Fatal("TrainWarm(nil) differs from cold Train")
	}
}
