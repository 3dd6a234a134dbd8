package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestChaosSoak executes a seeded chaos.SoakSchedule against a live
// daemon and asserts the full robustness contract from the acceptance
// criteria: under sustained load with load spikes and hot reloads
// (including corrupt registries) the daemon returns zero 5xx, sheds only
// with 429 + Retry-After, keeps serving the last good registry through
// corrupt reloads, answers every accepted request, and drains within its
// deadline on SIGTERM-equivalent shutdown.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is seconds of wall clock; skipped in -short")
	}
	plan := chaos.SoakSchedule(chaos.SoakConfig{
		Seed:     20260807,
		Duration: 3 * time.Second,
	})
	good, corrupt := plan.Reloads()
	if good+corrupt < 5 || corrupt < 1 {
		t.Fatalf("plan too tame: %d good + %d corrupt reloads", good, corrupt)
	}

	// Small queue and tight timeouts so the spikes genuinely shed.
	s, path := newTestServer(t, 1, func(c *Config) {
		c.QueueDepth = 64
		c.BatchMax = 32
		c.QueueTimeout = 50 * time.Millisecond
		c.RequestTimeout = 500 * time.Millisecond
		c.DrainTimeout = 3 * time.Second
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		ok, shed, other atomic.Int64
		server5xx       atomic.Int64
		badShed         atomic.Int64 // 429 without Retry-After
		failMu          sync.Mutex
		failures        []string
	)

	// Every 200 must carry a rate BIT-identical to what some promoted
	// generation's edge model predicts for goodBody's features — the
	// serve-soak half of the code-space differential: requests race
	// reloads, get re-resolved across generations, and still must land
	// exactly on a float-path prediction. validRates grows as generations
	// are promoted (a racing request may be answered by old or new).
	goodX := []float64{0.5, 0.2, 0.9}
	validRates := sync.Map{}
	expectRate := func(reg *Registry) {
		want, err := reg.Edges["S1->D1"].Predict(goodX)
		if err != nil {
			t.Fatal(err)
		}
		validRates.Store(want, true)
	}
	expectRate(s.Registry())
	note := func(format string, args ...any) {
		failMu.Lock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		failMu.Unlock()
	}

	hit := func() {
		resp, err := http.Post(ts.URL+"/predict", "application/json",
			bytes.NewReader([]byte(goodBody)))
		if err != nil {
			note("transport error: %v", err)
			other.Add(1)
			return
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		switch {
		case resp.StatusCode == http.StatusOK:
			var pr PredictResponse
			if err := json.Unmarshal(body.Bytes(), &pr); err != nil || pr.Generation < 1 {
				note("malformed 200 body: %s", body.String())
				other.Add(1)
				return
			}
			if _, known := validRates.Load(pr.Rate); !known {
				note("rate %v matches no promoted generation's float-path prediction", pr.Rate)
				other.Add(1)
				return
			}
			ok.Add(1)
		case resp.StatusCode == http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				badShed.Add(1)
				note("429 without Retry-After")
			}
			shed.Add(1)
		case resp.StatusCode >= 500:
			server5xx.Add(1)
			note("5xx during soak: %d %s", resp.StatusCode, body.String())
		default:
			other.Add(1)
			note("unexpected status %d: %s", resp.StatusCode, body.String())
		}
	}

	// Sustained base load.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < plan.BaseClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					hit()
				}
			}
		}()
	}

	// Execute the disruption schedule.
	start := time.Now()
	scale := 1.0
	for _, op := range plan.Ops {
		if d := op.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		switch op.Kind {
		case chaos.SoakReloadGood:
			scale += 0.5
			next := testRegistry(t, scale)
			expectRate(next)
			writeRegistryFile(t, path, next)
			if err := s.Reload(); err != nil {
				t.Errorf("good reload failed: %v", err)
			}
		case chaos.SoakReloadCorrupt:
			if err := os.WriteFile(path, []byte(`{"version":1,"features":["a"],"probes":[]}`), 0o644); err != nil {
				t.Fatal(err)
			}
			gen := s.Generation()
			if err := s.Reload(); err == nil {
				t.Error("corrupt reload promoted during soak")
			}
			if s.Generation() != gen {
				t.Errorf("generation moved on corrupt reload: %d -> %d", gen, s.Generation())
			}
			// Last good registry must still answer.
			resp, body := postPredict(t, ts.URL, goodBody)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("post-corrupt-reload predict: %d %s", resp.StatusCode, body)
			}
		case chaos.SoakSpike:
			var spike sync.WaitGroup
			spikeStop := time.Now().Add(op.For)
			for i := 0; i < op.Extra; i++ {
				spike.Add(1)
				go func() {
					defer spike.Done()
					for time.Now().Before(spikeStop) {
						hit()
					}
				}()
			}
			spike.Wait()
		}
	}
	if d := plan.Duration - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	close(stop)
	wg.Wait()

	// Graceful shutdown within the deadline, with accepted work answered.
	drainStart := time.Now()
	if err := s.Drain(); err != nil {
		t.Errorf("drain: %v", err)
	}
	if took := time.Since(drainStart); took > s.cfg.DrainTimeout+time.Second {
		t.Errorf("drain took %v, deadline %v", took, s.cfg.DrainTimeout)
	}

	// The contract.
	if server5xx.Load() != 0 {
		t.Errorf("%d 5xx responses during soak, want 0", server5xx.Load())
	}
	if badShed.Load() != 0 {
		t.Errorf("%d sheds missing Retry-After", badShed.Load())
	}
	if other.Load() != 0 {
		t.Errorf("%d unexpected responses", other.Load())
	}
	if ok.Load() == 0 {
		t.Error("no successful predictions during soak")
	}
	failMu.Lock()
	for _, f := range failures {
		t.Log("soak: " + f)
	}
	failMu.Unlock()

	// Bookkeeping: every accepted (enqueued) request was answered — the
	// queue is empty and inflight has fully drained (Drain returned).
	if n := s.queueLen(); n != 0 {
		t.Errorf("%d requests abandoned in queue after drain", n)
	}
	t.Logf("soak: %d ok, %d shed, generation %d (%d good + %d corrupt reloads)",
		ok.Load(), shed.Load(), s.Generation(), good, corrupt)
	if want := int64(good) + 1; s.Generation() != want {
		t.Errorf("final generation %d, want %d (boot + %d good reloads)", s.Generation(), want, good)
	}
}
