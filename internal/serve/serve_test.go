package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
)

var testFeatures = []string{"a", "b", "c"}

// testModel trains a small ensemble on a synthetic surface scaled by
// scale, so registries built with different scales predict differently —
// which lets tests observe which snapshot answered. The models carry a
// code-space forest.
func testModel(t testing.TB, seed int64, scale float64) *gbt.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const rows = 400
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		x[i] = []float64{a, b, c}
		y[i] = scale * (3*a - 2*b + c)
	}
	d, err := dataset.New(append([]string(nil), testFeatures...), x, y)
	if err != nil {
		t.Fatal(err)
	}
	p := gbt.DefaultParams()
	p.Rounds = 25
	p.Seed = seed
	m, err := gbt.Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if !m.CodeSpace() {
		t.Fatal("trained model has no code-space forest")
	}
	return m
}

// testRegistry builds a registry with one edge model (S1->D1) and a
// global fallback, with valid probes. The models are histogram-trained,
// so serve tests exercise the code-space (uint8) inference path end to
// end — the exact-rate assertions then pin quantized serving
// bit-identical to Model.Predict. (The float forest is covered by
// TestServeFloatFallback over a legacy registry file without cut points.)
func testRegistry(t testing.TB, scale float64) *Registry {
	t.Helper()
	edge := testModel(t, 7, scale)
	global := testModel(t, 8, scale)
	reg := &Registry{
		Features: append([]string(nil), testFeatures...),
		Global:   global,
		Edges:    map[string]*gbt.Model{"S1->D1": edge},
	}
	for i, m := range []*gbt.Model{edge, global} {
		x := []float64{0.2, 0.4, float64(i)}
		want, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		probe := Probe{X: x, Want: want}
		if i == 0 {
			probe.Edge = "S1->D1"
		}
		reg.Probes = append(reg.Probes, probe)
	}
	if err := reg.init(); err != nil {
		t.Fatal(err)
	}
	return reg
}

func writeRegistryFile(t testing.TB, path string, reg *Registry) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRegistry(&buf, reg); err != nil {
		t.Fatal(err)
	}
	// Atomic-rename write, like a production trainer would.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds, but does not Start, a server over a fresh
// registry file. Tweak the config via mod; timeouts default to
// test-friendly values.
func newTestServer(t testing.TB, scale float64, mod func(*Config)) (*Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "registry.json")
	writeRegistryFile(t, path, testRegistry(t, scale))
	cfg := Config{
		RegistryPath:   path,
		QueueDepth:     256,
		BatchMax:       64,
		QueueTimeout:   2 * time.Second,
		RequestTimeout: 5 * time.Second,
		DrainTimeout:   5 * time.Second,
		WatchInterval:  -1, // tests reload explicitly unless they opt in
		Logf:           t.Logf,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// postPredict sends one prediction request and decodes the response.
func postPredict(t testing.TB, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const goodBody = `{"src":"S1","dst":"D1","features":{"a":0.5,"b":0.2,"c":0.9}}`

func TestServerEndToEnd(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Liveness and readiness.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Edge-model prediction.
	resp2, body := postPredict(t, ts.URL, goodBody)
	if resp2.StatusCode != 200 {
		t.Fatalf("predict: %d %s", resp2.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "edge:S1->D1" {
		t.Errorf("model %q, want edge:S1->D1", pr.Model)
	}
	if pr.Generation != 1 {
		t.Errorf("generation %d, want 1", pr.Generation)
	}
	want, err := s.Registry().Edges["S1->D1"].Predict([]float64{0.5, 0.2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Rate != want {
		t.Errorf("rate %v, want %v", pr.Rate, want)
	}

	// Unknown edge falls back to the global model.
	resp3, body3 := postPredict(t, ts.URL, `{"src":"X","dst":"Y","features":{"a":1}}`)
	if resp3.StatusCode != 200 {
		t.Fatalf("global predict: %d %s", resp3.StatusCode, body3)
	}
	var pr3 PredictResponse
	if err := json.Unmarshal(body3, &pr3); err != nil {
		t.Fatal(err)
	}
	if pr3.Model != "global" {
		t.Errorf("model %q, want global", pr3.Model)
	}

	// /metrics exposes the counters in Prometheus text format.
	resp4, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(resp4.Body)
	resp4.Body.Close()
	for _, want := range []string{
		"# TYPE serve_predictions counter",
		"serve_generation 1",
		`serve_latency_ms_bucket{edge="S1->D1",le="+Inf"} 1`,
	} {
		if !bytes.Contains(mb.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, mb.String())
		}
	}
}

func TestServerBadRequests(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []string{
		``,
		`{`,
		`[1,2,3]`,
		`{"src":"A","dst":"B"}`,               // no features
		`{"src":"A","dst":"B","features":{}}`, // empty features
		`{"src":"A","dst":"B","features":{"nope":1}}`,               // unknown feature
		`{"src":"A","dst":"B","features":{"a":1},"extra":2}`,        // unknown field
		`{"src":"A","dst":"B","features":{"a":"x"}}`,                // wrong type
		`{"src":"A","dst":"B","features":{"a":1}} trailing`,         // trailing data
		`{"src":"A","dst":"B","features":{"a":1},"deadline_ms":-5}`, // negative deadline
	}
	for _, c := range cases {
		resp, body := postPredict(t, ts.URL, c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %.60q: status %d (%s), want 400", c, resp.StatusCode, body)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: %d, want 405", resp.StatusCode)
	}
}

// TestPredictSingletonWireContract pins what keeps /predict apart from
// /predict/batch on the shared job path: the body is one JSON value, so
// a pretty-printed, multi-line request — through the fast codec or the
// encoding/json fallback — answers byte-identically (apart from
// queue_ms) to its compact form as application/json without X-Rows, and
// a malformed body's 400 names no line.
func TestPredictSingletonWireContract(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postPredict(t, ts.URL, goodBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact body: status %d: %s", resp.StatusCode, body)
	}
	want := stripQueueMS(t, strings.TrimSuffix(string(body), "\n"))
	for _, pretty := range []string{
		"{\n  \"src\": \"S1\",\n  \"dst\": \"D1\",\n  \"features\": {\n    \"a\": 0.5,\n    \"b\": 0.2,\n    \"c\": 0.9\n  }\n}\n",
		"{\n  \"src\": \"S\\u0031\",\n  \"dst\": \"D1\",\n  \"features\": {\"a\": 0.5, \"b\": 0.2, \"c\": 0.9}\n}", // escape: json fallback
	} {
		resp, body := postPredict(t, ts.URL, pretty)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pretty body %q: status %d: %s", pretty, resp.StatusCode, body)
		}
		if got := stripQueueMS(t, strings.TrimSuffix(string(body), "\n")); got != want {
			t.Errorf("pretty body %q:\n got  %s\n want %s", pretty, got, want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q, want application/json", ct)
		}
		if rows := resp.Header.Get("X-Rows"); rows != "" {
			t.Errorf("singleton answer carries X-Rows %q", rows)
		}
	}
	for _, bad := range []string{
		"{\n  \"src\": \"S1\",\n  \"features\": {\"nope\": 1}\n}",
		"{\n  \"features\":\n",
	} {
		resp, body := postPredict(t, ts.URL, bad)
		var er errorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil {
			t.Fatalf("malformed body %q: status %d: %s", bad, resp.StatusCode, body)
		}
		if strings.HasPrefix(er.Error, "line ") || !strings.HasPrefix(er.Error, "bad request") {
			t.Errorf("malformed body %q: error %q, want an unnumbered bad request", bad, er.Error)
		}
	}
}

// TestServerShedsWhenQueueFull: with no batcher running and a one-slot
// queue, the second concurrent request is shed immediately with 429 and a
// Retry-After header — the bounded-admission contract.
func TestServerShedsWhenQueueFull(t *testing.T) {
	s, _ := newTestServer(t, 1, func(c *Config) {
		c.QueueDepth = 1
		c.Batchers = 1 // one shard, so QueueDepth=1 means exactly one slot
		c.RequestTimeout = 300 * time.Millisecond
	})
	// No Start: nothing drains the queue. Mark ready so /predict admits.
	s.ready.Store(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int)
	go func() {
		resp, _ := postPredict(t, ts.URL, goodBody)
		first <- resp.StatusCode
	}()
	// Wait until the first request occupies the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.queueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postPredict(t, ts.URL, goodBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full response %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	// The first request is eventually shed on its deadline, not dropped.
	if code := <-first; code != http.StatusTooManyRequests {
		t.Errorf("queued request answered %d, want 429 (deadline shed)", code)
	}
	if got := s.cfg.Metrics.Counter(`serve.shed{reason="queue_full"}`).Value(); got != 1 {
		t.Errorf("queue_full shed count %d, want 1", got)
	}
}

// TestServerDrain: during drain new requests shed with 429, readyz flips
// to 503, and Drain returns only after accepted requests are answered.
func TestServerDrain(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postPredict(t, ts.URL, goodBody)
	if resp.StatusCode != 200 {
		t.Fatalf("pre-drain predict: %d", resp.StatusCode)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", resp2.StatusCode)
	}
	resp3, _ := postPredict(t, ts.URL, goodBody)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Errorf("post-drain predict: %d, want 429", resp3.StatusCode)
	}
	// Idempotent.
	if err := s.Drain(); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestServerPanicIsolation: a request that panics inside the handler
// stack is answered with 500 and the daemon keeps serving.
func TestServerPanicIsolation(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking request: %d, want 500", resp.StatusCode)
	}
	if got := s.cfg.Metrics.Counter("serve.panics").Value(); got != 1 {
		t.Errorf("panic count %d, want 1", got)
	}
	resp2, _ := postPredict(t, ts.URL, goodBody)
	if resp2.StatusCode != 200 {
		t.Errorf("predict after panic: %d, want 200", resp2.StatusCode)
	}
}

// TestPredictSync covers the embedding entry point the benchmarks use.
func TestPredictSync(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	req := &PredictRequest{Src: "S1", Dst: "D1", Features: map[string]float64{"a": 0.5}}
	res, err := s.PredictSync(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "edge:S1->D1" || res.Generation != 1 {
		t.Errorf("unexpected response %+v", res)
	}
	want, _ := s.Registry().Edges["S1->D1"].Predict([]float64{0.5, 0, 0})
	if res.Rate != want {
		t.Errorf("rate %v, want %v", res.Rate, want)
	}
}
