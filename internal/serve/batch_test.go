package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postBatch sends one NDJSON batch request and returns the response plus
// its body split into lines.
func postBatch(t testing.TB, url, body string) (*http.Response, []string) {
	t.Helper()
	resp, err := http.Post(url+"/predict/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if raw == "" {
		return resp, nil
	}
	return resp, strings.Split(strings.TrimSuffix(raw, "\n"), "\n")
}

// TestBatchEndToEnd: a mixed batch (edge rows, global-fallback rows,
// blank lines, varied whitespace) comes back as one NDJSON line per
// input row, in input order, each line byte-identical to what /predict
// answers for the same row.
func TestBatchEndToEnd(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows := []string{
		`{"src":"S1","dst":"D1","features":{"a":0.5,"b":0.2,"c":0.9}}`,
		`{"src":"SX","dst":"DX","features":{"a":0.1,"b":0.7,"c":0.3}}`, // global fallback
		` { "features" : { "b" : 0.25 } } `,
		`{"src":"S1","dst":"D1","features":{"a":0.9,"b":0.9,"c":0.9},"deadline_ms":4000}`,
	}
	body := rows[0] + "\n" + rows[1] + "\n\n  \t\r\n" + rows[2] + "\n" + rows[3] // blanks skipped, no trailing \n
	resp, lines := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, lines)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	if got := resp.Header.Get("X-Rows"); got != "4" {
		t.Errorf("X-Rows %q, want 4", got)
	}
	if len(lines) != len(rows) {
		t.Fatalf("%d response lines for %d rows: %v", len(lines), len(rows), lines)
	}

	// Byte-identity against the singleton path, modulo queue_ms (a
	// timing measurement that legitimately differs between calls).
	for i, row := range rows {
		sresp, sbody := postPredict(t, ts.URL, row)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("singleton row %d status %d: %s", i, sresp.StatusCode, sbody)
		}
		want := stripQueueMS(t, strings.TrimSuffix(string(sbody), "\n"))
		got := stripQueueMS(t, lines[i])
		if got != want {
			t.Errorf("row %d mismatch:\n batch     %s\n singleton %s", i, got, want)
		}
	}
}

// stripQueueMS removes the queue_ms field (always the final field) from
// a response line, after checking the line's overall shape.
func stripQueueMS(t testing.TB, line string) string {
	t.Helper()
	i := strings.LastIndex(line, `,"queue_ms":`)
	if i < 0 || !strings.HasSuffix(line, "}") {
		t.Fatalf("malformed response line %q", line)
	}
	return line[:i]
}

// TestBatchMatchesPredictBatchSync: the HTTP batch path and the
// embedding API produce bitwise-equal rates for the same rows.
func TestBatchMatchesPredictBatchSync(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reg := s.Registry()
	nf := len(reg.Features)
	const n = 17
	rows := make([]BatchRow, n)
	var body strings.Builder
	for i := range rows {
		x := make([]float64, nf)
		for c := range x {
			x[c] = float64((i*3+c)%10) / 10
		}
		rows[i] = BatchRow{Src: "S1", Dst: "D1", X: x}
		fmt.Fprintf(&body, `{"src":"S1","dst":"D1","features":{"a":%g,"b":%g,"c":%g}}`+"\n", x[0], x[1], x[2])
	}
	out := make([]PredictResponse, n)
	if err := s.PredictBatchSync(context.Background(), rows, out); err != nil {
		t.Fatal(err)
	}
	resp, lines := postBatch(t, ts.URL, body.String())
	if resp.StatusCode != http.StatusOK || len(lines) != n {
		t.Fatalf("batch status %d, %d lines", resp.StatusCode, len(lines))
	}
	for i, line := range lines {
		var got PredictResponse
		if err := jsonUnmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Rate) != math.Float64bits(out[i].Rate) {
			t.Errorf("row %d: HTTP rate %v != sync rate %v", i, got.Rate, out[i].Rate)
		}
		if got.Model != out[i].Model || got.Model != "edge:S1->D1" {
			t.Errorf("row %d: model %q vs %q", i, got.Model, out[i].Model)
		}
		if got.Generation != out[i].Generation {
			t.Errorf("row %d: generation %d vs %d", i, got.Generation, out[i].Generation)
		}
	}
}

func jsonUnmarshal(line string, v any) error {
	return json.Unmarshal([]byte(line), v)
}

// TestBatchBadRequests: malformed input sheds the WHOLE batch as one 400
// with the offending line number; limits are enforced before admission.
func TestBatchBadRequests(t *testing.T) {
	s, _ := newTestServer(t, 1, func(c *Config) { c.MaxBatchRows = 8 })
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body, wantSub string
	}{
		{"empty body", "", "empty batch"},
		{"only blanks", "\n  \n\t\n", "empty batch"},
		{"bad json line", goodBody + "\n{not json}\n", "line 2"},
		{"no features", goodBody + "\n" + `{"src":"S1","dst":"D1","features":{}}`, "line 2"},
		{"unknown feature", `{"features":{"nope":1}}`, "line 1"},
		{"row limit", strings.Repeat(goodBody+"\n", 9), "exceeds max 8"},
	}
	for _, tc := range cases {
		resp, lines := postBatch(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if body := strings.Join(lines, "\n"); !strings.Contains(body, tc.wantSub) {
			t.Errorf("%s: body %q missing %q", tc.name, body, tc.wantSub)
		}
	}
	if resp, _ := postBatch(t, ts.URL, strings.Repeat("x", MaxBatchBody+1)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/predict/batch", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict/batch: status %d, want 405", resp.StatusCode)
	}
	if got := s.cfg.Metrics.Counter("serve.bad_requests").Value(); got < int64(len(cases)) {
		t.Errorf("bad_requests counter %d, want >= %d", got, len(cases))
	}
}

// TestBatchShedsWholeBatch: when no shard has room the entire batch is
// one 429 with Retry-After, under the batch's own per-reason counter —
// never a partial answer.
func TestBatchShedsWholeBatch(t *testing.T) {
	s, _ := newTestServer(t, 1, func(c *Config) {
		c.QueueDepth = 1
		c.Batchers = 1
		c.RequestTimeout = 300 * time.Millisecond
	})
	// No Start: nothing drains the queue. Mark ready so the endpoint admits.
	s.ready.Store(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := strings.Repeat(goodBody+"\n", 5)
	first := make(chan int)
	go func() {
		resp, _ := postBatch(t, ts.URL, body)
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.queueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first batch never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full batch status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch shed missing Retry-After")
	}
	if code := <-first; code != http.StatusTooManyRequests {
		t.Errorf("queued batch answered %d, want 429 (deadline shed)", code)
	}
	m := s.cfg.Metrics
	if got := m.Counter(`serve.batch_shed{reason="queue_full"}`).Value(); got != 1 {
		t.Errorf("batch_shed queue_full %d, want 1", got)
	}
	if got := m.Counter(`serve.batch_shed{reason="deadline"}`).Value(); got != 1 {
		t.Errorf("batch_shed deadline %d, want 1", got)
	}
}

// TestBatchMetrics: admitted batch sizes land in the serve_batch_rows
// histogram and /metrics exposes both batch families.
func TestBatchMetrics(t *testing.T) {
	s, _ := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, n := range []int{1, 3, 7} {
		resp, _ := postBatch(t, ts.URL, strings.Repeat(goodBody+"\n", n))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch of %d: status %d", n, resp.StatusCode)
		}
	}
	if got := s.mBatchRows.Count(); got != 3 {
		t.Errorf("serve.batch_rows count %d, want 3", got)
	}
	if got, want := s.mBatchRows.Sum(), 11.0; got != want {
		t.Errorf("serve.batch_rows sum %v, want %v", got, want)
	}
	if got := s.batch.requests.Value(); got != 3 {
		t.Errorf("serve.batch_requests %d, want 3", got)
	}
	if got := s.cfg.Metrics.Counter("serve.predictions").Value(); got != 11 {
		t.Errorf("serve.predictions %d, want 11", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{"serve_batch_rows_bucket", "serve_batch_requests 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPredictBatchSyncValidation covers the embedding API's argument
// contract.
func TestPredictBatchSyncValidation(t *testing.T) {
	s, _ := newTestServer(t, 1, func(c *Config) { c.MaxBatchRows = 4 })
	s.Start()
	defer s.Drain()
	ctx := context.Background()
	good := BatchRow{Src: "S1", Dst: "D1", X: []float64{0.5, 0.2, 0.9}}

	if err := s.PredictBatchSync(ctx, nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	rows := []BatchRow{good, good, good, good, good}
	if err := s.PredictBatchSync(ctx, rows, make([]PredictResponse, 5)); err == nil {
		t.Error("over-limit batch accepted")
	}
	if err := s.PredictBatchSync(ctx, rows[:2], make([]PredictResponse, 1)); err == nil {
		t.Error("mis-sized out accepted")
	}
	bad := []BatchRow{{Src: "S1", Dst: "D1", X: []float64{1}}}
	if err := s.PredictBatchSync(ctx, bad, make([]PredictResponse, 1)); err == nil {
		t.Error("short row accepted")
	}
	out := make([]PredictResponse, 2)
	if err := s.PredictBatchSync(ctx, rows[:2], out); err != nil {
		t.Fatal(err)
	}
	if out[0].Model != "edge:S1->D1" || out[0].Rate != out[1].Rate {
		t.Errorf("unexpected results: %+v", out)
	}
}

// TestPredictBatchSyncZeroAlloc: the steady-state batch path allocates
// nothing — the job, its slabs, and the completion slot all come out of
// pools, and the grouped code-space walk reuses the batcher's scratch —
// whether the rows share one edge model or alternate between the edge
// model and the global fallback.
func TestPredictBatchSyncZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	s, _ := newTestServer(t, 1, func(c *Config) { c.Batchers = 1 })
	s.Start()
	defer s.Drain()
	ctx := context.Background()

	const n = 64
	for _, mixed := range []bool{false, true} {
		rows := make([]BatchRow, n)
		for i := range rows {
			x := make([]float64, 3)
			x[0], x[1], x[2] = float64(i%7)/7, float64(i%5)/5, float64(i%3)/3
			rows[i] = BatchRow{Src: "S1", Dst: "D1", X: x}
			if mixed && i%2 == 1 {
				rows[i].Src, rows[i].Dst = "X", "Y"
			}
		}
		out := make([]PredictResponse, n)
		// Warm the pools and the batcher's scratch.
		for i := 0; i < 8; i++ {
			if err := s.PredictBatchSync(ctx, rows, out); err != nil {
				t.Fatal(err)
			}
		}
		float0 := s.mFloatRows.Value()
		avg := testing.AllocsPerRun(50, func() {
			if err := s.PredictBatchSync(ctx, rows, out); err != nil {
				t.Fatal(err)
			}
		})
		// The caller-visible path must be allocation-free. Background
		// work (timer wheel, metrics map growth) can contribute sub-1
		// noise on a busy box; anything >=1 alloc/op is a real per-call
		// allocation.
		if avg >= 1 {
			t.Errorf("mixed=%v: PredictBatchSync allocates %.2f allocs/op, want 0", mixed, avg)
		}
		if got := s.mFloatRows.Value() - float0; got != 0 {
			t.Errorf("mixed=%v: %d rows took the float forest, want 0", mixed, got)
		}
	}
}
