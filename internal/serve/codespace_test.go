package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/ml/gbt"
)

// TestRegistryVersion1FailsClosed: the code-space era bumped the registry
// format to version 2 (promotion now gates on the quantized path
// reproducing the float path exactly). A version-1 file predates that
// gate and must be refused with ErrBadRegistry — fail closed, keep the
// last good registry serving — never half-loaded.
func TestRegistryVersion1FailsClosed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRegistry(&buf, testRegistry(t, 1)); err != nil {
		t.Fatal(err)
	}
	downgraded := bytes.Replace(buf.Bytes(), []byte(`"version":2`), []byte(`"version":1`), 1)
	if bytes.Equal(downgraded, buf.Bytes()) {
		t.Fatal("payload does not declare version 2")
	}
	if _, err := ReadRegistry(bytes.NewReader(downgraded)); !errors.Is(err, ErrBadRegistry) {
		t.Fatalf("version-1 registry: got %v, want ErrBadRegistry", err)
	}
	// The original version-2 payload still loads.
	if _, err := ReadRegistry(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("version-2 registry rejected: %v", err)
	}
}

// TestServeMatchesFloatForest: the float forest is the reference every
// served rate must reproduce. 300 randomized rows through HTTP /predict,
// HTTP /predict/batch and PredictSync — the serving-layer differential
// for the quantized engine, covering edge and global models, batches
// mixing them, and the batcher's per-model quantizer.
func TestServeMatchesFloatForest(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	checkMatchesFloat(t, s, ts.URL, 300, true)
}

// TestServeFloatFallback: a registry file whose models carry no "bins" or
// "cuts" — what builds that trained exact models wrote — still loads,
// and its models have no code forest, so every row — lone /predict rows
// and batches mixing edge and global rows alike — takes predictGrouped's
// float branch. Answers must still equal Model.Predict bit for bit on
// both routes.
func TestServeFloatFallback(t *testing.T) {
	s, path := newTestServer(t, 1, nil)
	var buf bytes.Buffer
	if err := WriteRegistry(&buf, testRegistry(t, 1)); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	models := []any{file["global"]}
	for _, m := range file["edges"].(map[string]any) {
		models = append(models, m)
	}
	for _, m := range models {
		delete(m.(map[string]any), "bins")
		delete(m.(map[string]any), "cuts")
	}
	legacy, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*gbt.Model{"global": s.Registry().Global, "edge": s.Registry().Edges["S1->D1"]} {
		if m.CodeSpace() || m.Bins() != 0 {
			t.Fatalf("%s model from a legacy file: CodeSpace() = %v, Bins() = %d", name, m.CodeSpace(), m.Bins())
		}
	}
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	checkMatchesFloat(t, s, ts.URL, 60, false)
}

// checkMatchesFloat sends n randomized rows — off the training surface
// on purpose, every third on the global fallback — through PredictSync,
// HTTP /predict and HTTP /predict/batch (chunks of up to 100 rows mixing
// edge and global), and requires every answer to carry the model label
// and the bit-exact rate of Registry.Lookup + Model.Predict. All 3n rows
// must be scored by one traversal: the code forest when coded is set —
// mixed-edge batches included — the float forest otherwise.
func checkMatchesFloat(t *testing.T, s *Server, url string, n int, coded bool) {
	t.Helper()
	code0, float0 := s.mCodeRows.Value(), s.mFloatRows.Value()
	defer func() {
		dc, df := s.mCodeRows.Value()-code0, s.mFloatRows.Value()-float0
		wantCode, wantFloat := int64(3*n), int64(0)
		if !coded {
			wantCode, wantFloat = wantFloat, wantCode
		}
		if dc != wantCode || df != wantFloat {
			t.Errorf("kernel rows: %d code, %d float; want %d code, %d float", dc, df, wantCode, wantFloat)
		}
	}()
	reg := s.Registry()
	rng := rand.New(rand.NewSource(99))
	reqs := make([]*PredictRequest, n)
	bodies := make([]string, n)
	want := make([]PredictResponse, n)
	for i := range reqs {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		req := &PredictRequest{Src: "S1", Dst: "D1", Features: map[string]float64{"a": x[0], "b": x[1], "c": x[2]}}
		if i%3 == 0 {
			req.Src, req.Dst = "X", "Y"
		}
		m, label := reg.Lookup(req.Src, req.Dst)
		rate, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i], bodies[i], want[i] = req, string(body), PredictResponse{Rate: rate, Model: label}
	}
	check := func(path string, i int, got PredictResponse) {
		t.Helper()
		if math.Float64bits(got.Rate) != math.Float64bits(want[i].Rate) || got.Model != want[i].Model {
			t.Fatalf("%s row %d: got %v (%s), float forest %v (%s)", path, i, got.Rate, got.Model, want[i].Rate, want[i].Model)
		}
	}
	for i, req := range reqs {
		res, err := s.PredictSync(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		check("PredictSync", i, *res)
		resp, body := postPredict(t, url, bodies[i])
		var got PredictResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil {
			t.Fatalf("/predict row %d: status %d: %s", i, resp.StatusCode, body)
		}
		check("/predict", i, got)
	}
	for lo := 0; lo < n; lo += 100 {
		hi := min(lo+100, n)
		resp, lines := postBatch(t, url, strings.Join(bodies[lo:hi], "\n"))
		if resp.StatusCode != http.StatusOK || len(lines) != hi-lo {
			t.Fatalf("/predict/batch rows %d-%d: status %d, %d lines", lo, hi, resp.StatusCode, len(lines))
		}
		for k, line := range lines {
			var got PredictResponse
			if err := jsonUnmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			check("/predict/batch", lo+k, got)
		}
	}
}

// TestServeNonFiniteRowsFallBackToFloat: the quantizer refuses NaN and
// ±Inf, so a model's group holding one rides the float forest while the
// other model's rows in the same batch still walk code space, and every
// rate equals Model.Predict bit for bit.
func TestServeNonFiniteRowsFallBackToFloat(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	rows := []BatchRow{
		{Src: "S1", Dst: "D1", X: []float64{0.5, 0.2, 0.9}},
		{Src: "X", Dst: "Y", X: []float64{math.NaN(), 0.2, 0.9}},
		{Src: "S1", Dst: "D1", X: []float64{0.1, 0.7, 0.3}},
		{Src: "X", Dst: "Y", X: []float64{0.4, math.Inf(1), 0.1}},
		{Src: "X", Dst: "Y", X: []float64{0.3, 0.3, math.Inf(-1)}},
		{Src: "S1", Dst: "D1", X: []float64{0.9, 0.9, 0.4}},
	}
	out := make([]PredictResponse, len(rows))
	if err := s.PredictBatchSync(context.Background(), rows, out); err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	for i, row := range rows {
		m, label := reg.Lookup(row.Src, row.Dst)
		want, err := m.Predict(row.X)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out[i].Rate) != math.Float64bits(want) || out[i].Model != label {
			t.Errorf("row %d: got %v (%s), float forest %v (%s)", i, out[i].Rate, out[i].Model, want, label)
		}
	}
	if dc, df := s.mCodeRows.Value(), s.mFloatRows.Value(); dc != 3 || df != 3 {
		t.Errorf("kernel rows: %d code, %d float; want 3 and 3", dc, df)
	}
}

// TestServeCodeSpaceReloadRequantizes: after a reload the batcher must
// quantize against the new snapshot's models and cuts, so answers stay
// bit-identical to the new model's float path.
func TestServeCodeSpaceReloadRequantizes(t *testing.T) {
	s, path := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()

	req := &PredictRequest{Src: "S1", Dst: "D1", Features: map[string]float64{"a": 0.5, "b": 0.2, "c": 0.9}}
	x := []float64{0.5, 0.2, 0.9}

	for gen, scale := range []float64{1, 2.5, 4} {
		if gen > 0 {
			writeRegistryFile(t, path, testRegistry(t, scale))
			if err := s.Reload(); err != nil {
				t.Fatal(err)
			}
		}
		want, err := s.Registry().Edges["S1->D1"].Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			res, err := s.PredictSync(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rate != want {
				t.Fatalf("generation %d request %d: rate %v, want %v", gen+1, i, res.Rate, want)
			}
		}
	}
}

// TestServeManyBatchersDrainCleanly: the sharded-batcher configuration
// (many batchers, small batches, concurrent producers) preserves the
// answer-everything-then-stop drain contract.
func TestServeManyBatchersDrainCleanly(t *testing.T) {
	s, _ := newTestServer(t, 1, func(c *Config) {
		c.Batchers = 8
		c.BatchMax = 4
	})
	s.Start()
	errs := make(chan error, 200)
	for g := 0; g < 8; g++ {
		go func(g int) {
			req := &PredictRequest{Src: "S1", Dst: "D1", Features: map[string]float64{"a": float64(g)}}
			for i := 0; i < 25; i++ {
				_, err := s.PredictSync(context.Background(), req)
				errs <- err
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := s.queueLen(); n != 0 {
		t.Fatalf("%d requests abandoned in queue after drain", n)
	}
}

// TestServeCodeSpaceDefaultBatchers sanity-checks the default sharding:
// an unset Batchers resolves to at least 2 (GOMAXPROCS-capped), so the
// single-batcher serialization point is gone by default.
func TestServeCodeSpaceDefaultBatchers(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.Batchers < 1 {
		t.Fatalf("default Batchers = %d", c.Batchers)
	}
	if c.Batchers == 1 {
		t.Skip("single-core runner; nothing to assert")
	}
	// Non-default configurations pass through untouched.
	c2 := Config{Batchers: 3}
	c2.fillDefaults()
	if c2.Batchers != 3 {
		t.Fatalf("explicit Batchers rewritten to %d", c2.Batchers)
	}
}
