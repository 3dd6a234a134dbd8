package gbt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ml/dataset"
)

// trainBatchModel fits a small ensemble on synthetic data.
func trainBatchModel(t testing.TB, rows int) (*Model, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		x[i] = []float64{a, b, c}
		y[i] = 3*a - 2*b*b + c + 0.05*rng.NormFloat64()
	}
	d, err := dataset.New([]string{"a", "b", "c"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Rounds = 40
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestPredictBatchMatchesPredict: the batch entry point is bit-identical
// to per-row Predict, for batch sizes below and above the parallel
// fan-out threshold.
func TestPredictBatchMatchesPredict(t *testing.T) {
	m, d := trainBatchModel(t, 1200)
	out := make([]float64, d.Len())
	if err := m.PredictBatch(d.X, out); err != nil {
		t.Fatal(err)
	}
	for i, x := range d.X {
		want, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("row %d: batch %v != predict %v", i, out[i], want)
		}
	}
	// Small batch (serial path).
	small := make([]float64, 3)
	if err := m.PredictBatch(d.X[:3], small); err != nil {
		t.Fatal(err)
	}
	for i := range small {
		if small[i] != out[i] {
			t.Errorf("row %d: small-batch %v != large-batch %v", i, small[i], out[i])
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	m, d := trainBatchModel(t, 50)
	if err := m.PredictBatch(d.X, make([]float64, 1)); err == nil {
		t.Error("mismatched out length accepted")
	}
	if err := m.PredictBatch([][]float64{{1, 2}}, make([]float64, 1)); err == nil {
		t.Error("short row accepted")
	}
	var untrained Model
	if err := untrained.PredictBatch(d.X, make([]float64, d.Len())); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained model: got %v, want ErrNotTrained", err)
	}
}

// TestModelJSONRoundTrip: MarshalJSON/UnmarshalJSON carry the same
// payload as Save/Load and reproduce predictions exactly, so models can
// embed in larger documents (the serve registry).
func TestModelJSONRoundTrip(t *testing.T) {
	m, d := trainBatchModel(t, 300)
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// Same payload as Save.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if string(blob)+"\n" != buf.String() {
		t.Error("MarshalJSON and Save disagree")
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for _, x := range d.X[:20] {
		a, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("round-trip prediction %v != %v", b, a)
		}
	}
}

// TestModelUnmarshalRejectsBad: UnmarshalJSON applies Load's structural
// validation — crafted payloads error instead of building a model that
// could loop or index out of range.
func TestModelUnmarshalRejectsBad(t *testing.T) {
	if err := json.Unmarshal([]byte(`{`), &Model{}); err == nil {
		t.Error("truncated JSON accepted")
	}
	cases := []string{
		`{"version":99,"base":0,"names":["a"],"trees":[[{"f":-1,"w":1,"l":-1,"r":-1}]]}`,
		`{"version":1,"base":0,"names":[],"trees":[]}`,
		`{"version":1,"base":0,"names":["a"],"trees":[[{"f":5,"t":0,"l":1,"r":2},{"f":-1,"w":1,"l":-1,"r":-1},{"f":-1,"w":2,"l":-1,"r":-1}]]}`,
		`{"version":1,"base":0,"names":["a"],"trees":[[{"f":0,"t":0,"l":0,"r":0}]]}`,
	}
	for _, c := range cases {
		var m Model
		if err := json.Unmarshal([]byte(c), &m); !errors.Is(err, ErrBadModel) {
			t.Errorf("payload %.60s: got %v, want ErrBadModel", c, err)
		}
	}
}

// BenchmarkPredictBatchWarm600 is the refresh loop's dominant inference:
// a 600-tree warm-started-size ensemble over 3,000 window rows through
// PredictBatch, single worker.
func BenchmarkPredictBatchWarm600(b *testing.B) {
	_, d := trainBatchModel(b, 3000)
	p := DefaultParams()
	p.Rounds = 600
	p.Workers = 1
	m, err := Train(d, p)
	if err != nil {
		b.Fatal(err)
	}
	m.params.Workers = 1
	out := make([]float64, d.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictBatch(d.X, out); err != nil {
			b.Fatal(err)
		}
	}
}
