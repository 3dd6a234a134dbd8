package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// discardWriter is a reusable http.ResponseWriter: it keeps the status
// code and drops the body, so an allocation count measures the handler
// and not a recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestFrontDoorAllocs bounds the allocations of one /predict and one
// 256-row /predict/batch request through Server.Handler(), with the
// request and the writer reused across calls. The bounds are the counts
// the separate singleton and batch handlers measured before the two
// routes shared one job path (go1.24, linux/amd64, 2 cores): 1 alloc/op
// for /predict and 3 for the batch. Those are the []string values
// http.Header.Set stores, one per header written (Content-Type, X-Rows),
// plus the X-Rows integer formatting; the decode, admission, handoff and
// encode path itself allocates nothing. A batch alternating edge and
// global rows holds the same 3: grouping rows by serving model reuses
// the batcher's scratch (the mixed-model float walk this replaced
// allocated per group). Global rows that name an unmodelled edge still
// copy the two names out of the request body.
func TestFrontDoorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	s, _ := newTestServer(t, 1, func(c *Config) { c.Batchers = 1 })
	s.Start()
	defer s.Drain()
	h := s.Handler()

	var batch, mixed strings.Builder
	for i := 0; i < 256; i++ {
		row := fmt.Sprintf(`{"src":"S1","dst":"D1","features":{"a":%g,"b":0.2,"c":0.9}}`+"\n", float64(i%10)/10)
		batch.WriteString(row)
		if i%2 == 1 {
			// No src/dst: the global model answers, and the decoder
			// has no edge name to copy.
			row = fmt.Sprintf(`{"features":{"a":%g,"b":0.2,"c":0.9}}`+"\n", float64(i%10)/10)
		}
		mixed.WriteString(row)
	}
	cases := []struct {
		name, path, body string
		max              float64
	}{
		{"single", "/predict", goodBody, 1},
		{"batch", "/predict/batch", batch.String(), 3},
		{"mixed batch", "/predict/batch", mixed.String(), 3},
	}
	for _, tc := range cases {
		body := []byte(tc.body)
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, tc.path, nil)
		r.Body = io.NopCloser(rd)
		w := &discardWriter{h: http.Header{}}
		call := func() {
			rd.Reset(body)
			w.code = 0
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d", tc.name, w.code)
			}
		}
		for i := 0; i < 16; i++ { // warm the pools and the batcher scratch
			call()
		}
		got := testing.AllocsPerRun(200, call)
		t.Logf("%s: %.2f allocs/op", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.2f allocs/op, want <= %v", tc.name, got, tc.max)
		}
	}
}
