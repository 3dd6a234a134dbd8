package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {10000, 99.9}, {100000, 99.99}, {10_000_000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) on the same inputs.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, m, q3 := quartiles(c.in)
		if [3]float64{q1, m, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, m, q3, c.want)
		}
	}
}

// TestOpenLoopChargesStall stalls the first request of an open loop over
// one connection: every request due during the stall must be charged the
// wait from its due time, and the generator must report itself late.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	ld := newLoader(ts.URL, "application/json", [][]byte{[]byte("{}")}, 1)
	defer ld.close()
	res := ld.openLoop(100, 600*time.Millisecond, nil)
	if len(res) != 60 {
		t.Fatalf("sent %d requests, want 60", len(res))
	}
	queued := 0
	for _, r := range res {
		if !r.ok() {
			t.Fatalf("request due at %v failed with status %d", r.due, r.status)
		}
		if r.due > 0 && r.due < stall-50*time.Millisecond {
			queued++
			if r.latency() < stall-r.due {
				t.Errorf("request due at %v: latency %v hides the stall (want at least %v)", r.due, r.latency(), stall-r.due)
			}
			if r.sent-r.due < stall-r.due-10*time.Millisecond {
				t.Errorf("request due at %v sent only %v late", r.due, r.sent-r.due)
			}
		}
	}
	if queued < 20 {
		t.Fatalf("only %d requests fell inside the stall", queued)
	}
	s := summarize(res, 1, 100*time.Millisecond)
	if p99 := percentile(s.lateMS, 99); p99 < 200 {
		t.Errorf("loadgen late p99 %.1f ms; the 300 ms stall must show", p99)
	}
	if s.windowP50[0] < 100 {
		t.Errorf("first window's p50 %.1f ms; the stall must show", s.windowP50[0])
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricsDeclared keeps the catalog wanbench reports from and
// BENCHMARK.json identical, with valid names.
func TestMetricsDeclared(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what           string
		declared, have []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, wanbench reports %d", c.what, len(c.declared), len(c.have))
		}
		seen := map[string]bool{}
		for i, m := range c.have {
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", c.what, m.Name)
			}
			seen[m.Name] = true
			if i < len(c.declared) && c.declared[i] != m {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, wanbench %+v", c.what, i, c.declared[i], m)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workload %d: wanbench runs %q, BENCHMARK.json declares %v", i, w.name, names)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	var g spanGroup
	if err := json.Unmarshal([]byte(`{"spans":[
		{"id":1,"name":"root","start_ms":0,"dur_ms":100},
		{"id":2,"parent":1,"name":"a","start_ms":10,"dur_ms":30},
		{"id":3,"parent":1,"name":"b","start_ms":30,"dur_ms":30},
		{"id":4,"parent":3,"name":"a","start_ms":40,"dur_ms":5}]}`), &g); err != nil {
		t.Fatal(err)
	}
	got := selfTimes([]spanGroup{g})
	want := map[string]float64{"root": 50, "a": 35, "b": 25}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}
