package gbt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml/dataset"
)

// quantizeRows quantizes raw rows through the model's quantizer,
// failing the test on any quantization error.
func quantizeRows(t *testing.T, m *Model, xs [][]float64) [][]uint8 {
	t.Helper()
	codes := make([][]uint8, len(xs))
	for i, x := range xs {
		codes[i] = make([]uint8, len(x))
		if err := m.QuantizeRow(x, codes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return codes
}

// TestCodeSpaceBitIdenticalSweep is the tentpole differential: across a
// 50-config sweep of dataset shapes, bin budgets, depths, and
// subsampling, every binned-trained model must (a) carry a code forest
// and (b) produce BIT-identical predictions through all three code-space
// entry points — PredictAllBinned over the training matrix's codes,
// QuantizeRow+PredictCodes over the raw training rows, and
// QuantizeRow+PredictCodes over random off-data rows (values the
// training matrix never exhibited, which exercise thresholds inside the
// occupied-value gaps where only the bin-edge snap keeps the paths
// aligned).
func TestCodeSpaceBitIdenticalSweep(t *testing.T) {
	targets := []func(x []float64) float64{
		func(x []float64) float64 { return 3 * x[0] },
		func(x []float64) float64 { return x[0] * x[1] },
		func(x []float64) float64 { return math.Sin(x[0]) + x[1]/2 },
		func(x []float64) float64 {
			if x[0] > 0 {
				return 5
			}
			return -5
		},
		func(x []float64) float64 { return x[0]*x[0]/4 - x[1] },
	}
	bins := []int{2, 7, 16, 64, 256}
	cfg := 0
	for ci := 0; ci < 50; ci++ {
		n := 80 + (ci%5)*60
		p := 2 + ci%4
		b := bins[ci%len(bins)]
		pr := histParams(b)
		pr.Rounds = 8 + ci%10
		pr.MaxDepth = 2 + ci%4
		pr.Seed = int64(100 + ci)
		if ci%3 == 0 {
			pr.SubsampleRows = 0.7
			pr.SubsampleCols = 0.8
		}
		d := makeDataset(t, n, int64(ci), targets[ci%len(targets)], 0.3, p)
		bd, err := dataset.Bin(d, b)
		if err != nil {
			t.Fatal(err)
		}
		m, err := TrainBinned(bd, nil, pr)
		if err != nil {
			t.Fatal(err)
		}
		if !m.CodeSpace() {
			t.Fatalf("config %d (bins=%d): binned model has no code forest", ci, b)
		}
		want, err := m.PredictAll(d)
		if err != nil {
			t.Fatal(err)
		}

		// Path 1: column-major codes straight from the binned matrix.
		got, err := m.PredictAllBinned(bd)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("config %d row %d: PredictAllBinned %v != PredictAll %v", ci, i, got[i], want[i])
			}
		}

		// Path 2: row quantizer + PredictCodes on the training rows.
		codes := quantizeRows(t, m, d.X)
		out := make([]float64, len(codes))
		if err := m.PredictCodes(codes, out); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("config %d row %d: PredictCodes %v != PredictAll %v", ci, i, out[i], want[i])
			}
		}

		// Path 3: off-data rows — wider range than training, so values
		// land between bins, beyond the last cut, and inside the
		// occupied-value gaps around thresholds.
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		probe := make([][]float64, 64)
		for i := range probe {
			row := make([]float64, p)
			for j := range row {
				row[j] = rng.Float64()*30 - 15
			}
			probe[i] = row
		}
		wantProbe := make([]float64, len(probe))
		if err := m.PredictBatch(probe, wantProbe); err != nil {
			t.Fatal(err)
		}
		pcodes := quantizeRows(t, m, probe)
		gotProbe := make([]float64, len(probe))
		if err := m.PredictCodes(pcodes, gotProbe); err != nil {
			t.Fatal(err)
		}
		for i := range wantProbe {
			if gotProbe[i] != wantProbe[i] {
				t.Fatalf("config %d probe %d: code-space %v != float %v", ci, i, gotProbe[i], wantProbe[i])
			}
		}
		cfg++
	}
	if cfg != 50 {
		t.Fatalf("sweep ran %d configs, want 50", cfg)
	}
}

// TestCodeSpaceThresholdsOnBinEdges pins the invariant the whole engine
// rests on: every split threshold of a binned-trained model equals a
// stored cut point exactly (not approximately), so code(v) <= m ⇔
// v <= threshold for every float input.
func TestCodeSpaceThresholdsOnBinEdges(t *testing.T) {
	d := makeDataset(t, 400, 50, func(x []float64) float64 { return x[0]*x[1] + math.Sin(x[2]) }, 0.2, 3)
	m, err := Train(d, histParams(64))
	if err != nil {
		t.Fatal(err)
	}
	for ti := range m.trees {
		for _, nd := range m.trees[ti].nodes {
			if nd.feature < 0 {
				continue
			}
			cuts := m.cuts[nd.feature]
			found := false
			for _, c := range cuts {
				if c == nd.threshold {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("tree %d: threshold %v of feature %d is not a stored cut point", ti, nd.threshold, nd.feature)
			}
		}
	}
}

// TestCodeSpaceExactModelRefused: exact-trained models (the reference
// trainer's, and those in files written before training was always
// binned) have no cut points, so the code path must report itself
// unavailable through every entry point while the float path keeps
// working.
func TestCodeSpaceExactModelRefused(t *testing.T) {
	d := makeDataset(t, 200, 51, func(x []float64) float64 { return 2 * x[0] }, 0.1, 2)
	m := trainReference(d, DefaultParams())
	if m.CodeSpace() {
		t.Fatal("exact-trained model claims a code forest")
	}
	if m.Quantizer() != nil {
		t.Error("exact-trained model returned a quantizer")
	}
	if err := m.QuantizeRow(d.X[0], make([]uint8, 2)); !errors.Is(err, ErrNoCodeSpace) {
		t.Errorf("QuantizeRow: got %v, want ErrNoCodeSpace", err)
	}
	if err := m.PredictCodes([][]uint8{{0, 0}}, make([]float64, 1)); !errors.Is(err, ErrNoCodeSpace) {
		t.Errorf("PredictCodes: got %v, want ErrNoCodeSpace", err)
	}
	bd, err := dataset.Bin(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictAllBinned(bd); !errors.Is(err, ErrNoCodeSpace) {
		t.Errorf("PredictAllBinned: got %v, want ErrNoCodeSpace", err)
	}
	if _, err := m.Predict(d.X[0]); err != nil {
		t.Errorf("float path broken on exact model: %v", err)
	}
}

// TestCodeSpaceOffEdgeThresholdRefused is the meta-test the satellite
// demands: a model whose split threshold does NOT sit exactly on a bin
// edge — here a round-tripped payload with one threshold nudged into the
// adjacent float — must be refused by the code-space builder and fall
// back to the float path, never silently diverge.
func TestCodeSpaceOffEdgeThresholdRefused(t *testing.T) {
	d := makeDataset(t, 300, 52, func(x []float64) float64 { return 4 * x[0] }, 0.1, 2)
	m, err := Train(d, histParams(32))
	if err != nil {
		t.Fatal(err)
	}
	if !m.CodeSpace() {
		t.Fatal("binned model has no code forest")
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var jm jsonModel
	if err := json.Unmarshal(buf.Bytes(), &jm); err != nil {
		t.Fatal(err)
	}
	nudged := false
	for ti := range jm.Trees {
		for i := range jm.Trees[ti] {
			n := &jm.Trees[ti][i]
			if n.Feature >= 0 {
				n.Threshold = math.Nextafter(n.Threshold, math.Inf(1))
				nudged = true
				break
			}
		}
		if nudged {
			break
		}
	}
	if !nudged {
		t.Fatal("no split node found to nudge")
	}
	payload, err := json.Marshal(&jm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if back.CodeSpace() {
		t.Fatal("model with off-edge threshold was NOT refused by the code-space builder")
	}
	if err := back.PredictCodes([][]uint8{{0, 0}}, make([]float64, 1)); !errors.Is(err, ErrNoCodeSpace) {
		t.Errorf("PredictCodes on refused model: got %v, want ErrNoCodeSpace", err)
	}
	// The float path must still serve the (nudged) model.
	if _, err := back.Predict(d.X[0]); err != nil {
		t.Errorf("float path broken on refused model: %v", err)
	}
}

// TestCodeSpaceSerializationRoundTrip: a binned model's code forest
// survives Save/Load — the loaded model rebuilds it from the persisted
// cuts and serves bit-identical code-space predictions.
func TestCodeSpaceSerializationRoundTrip(t *testing.T) {
	d := makeDataset(t, 300, 53, func(x []float64) float64 { return x[0] - x[1]*x[1]/3 }, 0.2, 3)
	m, err := Train(d, histParams(128))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.CodeSpace() {
		t.Fatal("code forest lost in round trip")
	}
	codes := quantizeRows(t, m, d.X)
	want := make([]float64, len(codes))
	got := make([]float64, len(codes))
	if err := m.PredictCodes(codes, want); err != nil {
		t.Fatal(err)
	}
	if err := back.PredictCodes(codes, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: round-tripped code path %v != original %v", i, got[i], want[i])
		}
	}
}

// TestPredictCodesValidation pins the error contract of the batch entry
// point: ragged rows and mis-sized outputs are refused before any work.
func TestPredictCodesValidation(t *testing.T) {
	d := makeDataset(t, 100, 54, func(x []float64) float64 { return x[0] }, 0.1, 2)
	m, err := Train(d, histParams(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PredictCodes([][]uint8{{1}}, make([]float64, 1)); err == nil {
		t.Error("short row accepted")
	}
	if err := m.PredictCodes([][]uint8{{1, 2}}, make([]float64, 2)); err == nil {
		t.Error("mis-sized out accepted")
	}
	var empty Model
	if err := empty.PredictCodes(nil, nil); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained: got %v, want ErrNotTrained", err)
	}
}

// TestPredictCodesDenseMatchesRows: the in-place slab walker must write
// the same bits as PredictCodes on slice-of-slices rows, and QuantizeSlab
// the same codes as per-row QuantizeRow, across slab sizes straddling the
// codeBlock boundary and through the pool fan-out threshold.
func TestPredictCodesDenseMatchesRows(t *testing.T) {
	const p = 5
	d := makeDataset(t, 600, 71, func(x []float64) float64 { return x[0]*x[1] - x[3] }, 0.3, p)
	bd, err := dataset.Bin(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	pr := histParams(64)
	pr.Rounds = 15
	pr.Workers = 4
	m, err := TrainBinned(bd, nil, pr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{1, 63, 64, 65, 256, 300, 600} {
		rows := make([][]float64, n)
		slab := make([]float64, n*p)
		for i := range rows {
			row := slab[i*p : (i+1)*p]
			for j := range row {
				row[j] = rng.Float64()*30 - 15
			}
			rows[i] = row
		}
		codes := quantizeRows(t, m, rows)
		dense := make([]uint8, n*p)
		if err := m.QuantizeSlab(slab, dense); err != nil {
			t.Fatal(err)
		}
		for i, r := range codes {
			for f, c := range r {
				if dense[i*p+f] != c {
					t.Fatalf("n=%d row %d feature %d: QuantizeSlab code %d != QuantizeRow %d", n, i, f, dense[i*p+f], c)
				}
			}
		}
		want := make([]float64, n)
		if err := m.PredictCodes(codes, want); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if err := m.PredictCodesDense(dense, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d row %d: PredictCodesDense %v != PredictCodes %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestPredictCodesDenseValidation pins the dense entry point's error
// contract: mis-sized slabs, float-trained models, and untrained models
// are refused before any walk.
func TestPredictCodesDenseValidation(t *testing.T) {
	d := makeDataset(t, 100, 73, func(x []float64) float64 { return x[0] }, 0.1, 2)
	m, err := Train(d, histParams(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PredictCodesDense(make([]uint8, 3), make([]float64, 2)); err == nil {
		t.Error("ragged slab accepted")
	}
	if err := m.QuantizeSlab(make([]float64, 3), make([]uint8, 3)); err != nil && !errors.Is(err, dataset.ErrShape) {
		t.Errorf("ragged quantize slab: got %v, want ErrShape", err)
	}
	exact := makeDataset(t, 80, 74, func(x []float64) float64 { return x[0] }, 0.1, 2)
	me := trainReference(exact, Params{Rounds: 3, LearningRate: 0.3, MaxDepth: 2})
	if me.CodeSpace() {
		t.Fatal("exact-trained model unexpectedly has a code forest")
	}
	if err := me.PredictCodesDense(make([]uint8, 2), make([]float64, 1)); !errors.Is(err, ErrNoCodeSpace) {
		t.Errorf("float model: got %v, want ErrNoCodeSpace", err)
	}
	if err := me.QuantizeSlab(make([]float64, 2), make([]uint8, 2)); !errors.Is(err, ErrNoCodeSpace) {
		t.Errorf("float model quantize: got %v, want ErrNoCodeSpace", err)
	}
	var empty Model
	if err := empty.PredictCodesDense(nil, nil); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained: got %v, want ErrNotTrained", err)
	}
}

// TestCodeSpaceParallelMatchesSerial: the pool fan-out writes the same
// bits as the single-worker walk, for both batch entry points.
func TestCodeSpaceParallelMatchesSerial(t *testing.T) {
	d := makeDataset(t, 2000, 55, func(x []float64) float64 { return x[0] * x[1] / 2 }, 0.3, 4)
	bd, err := dataset.Bin(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := histParams(64)
	p.Rounds = 20
	serial := p
	serial.Workers = 1
	ms, err := TrainBinned(bd, nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := p
	parallel.Workers = 8
	mp, err := TrainBinned(bd, nil, parallel)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ms.PredictAllBinned(bd)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := mp.PredictAllBinned(bd)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if ws[i] != wp[i] {
			t.Fatalf("row %d: 8-worker code path %v != serial %v", i, wp[i], ws[i])
		}
	}
	codes := quantizeRows(t, ms, d.X)
	out := make([]float64, len(codes))
	if err := mp.PredictCodes(codes, out); err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if out[i] != ws[i] {
			t.Fatalf("row %d: parallel PredictCodes %v != serial PredictAllBinned %v", i, out[i], ws[i])
		}
	}
}
