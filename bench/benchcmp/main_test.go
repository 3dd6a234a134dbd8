package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFiles writes a one-workload, one-metric spec and one result file
// per value, each value carrying a within-run quartile gap of ±rel.
func writeFiles(t *testing.T, dir, prefix string, vals []float64, rel float64, failed int) []string {
	t.Helper()
	var paths []string
	for i, v := range vals {
		r := map[string]any{
			"host": map[string]any{"nproc": 2},
			"workloads": map[string]any{"w": map[string]any{
				"correct": true, "attempted": 100, "failed": failed,
				"end_to_end": map[string]any{"p50_ms": map[string]any{
					"value": v, "q1": v * (1 - rel), "q3": v * (1 + rel), "n": 5,
				}},
			}},
		}
		p := filepath.Join(dir, fmt.Sprintf("%s%d.json", prefix, i))
		b, _ := json.Marshal(r)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func compare(t *testing.T, olds, news []float64, oldRel, newRel float64, oldFailed, newFailed int) (string, int) {
	t.Helper()
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	op := writeFiles(t, dir, "old", olds, oldRel, oldFailed)
	np := writeFiles(t, dir, "new", news, newRel, newFailed)
	var out strings.Builder
	code := run([]string{"-bench", spec, "-old", strings.Join(op, ","), "-new", strings.Join(np, ",")}, &out)
	return out.String(), code
}

func repeat(v float64, n int, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v + step*float64(i%3)
	}
	return out
}

func TestVerdicts(t *testing.T) {
	cases := []struct {
		name           string
		olds, news     []float64
		oldRel, newRel float64
		want           string
		code           int
	}{
		{"same", []float64{100}, []float64{103}, 0.02, 0.02, "unchanged", 0},
		{"worse than bound", []float64{100}, []float64{115}, 0.02, 0.02, "regressed", 1},
		{"spread wider than bound", []float64{100}, []float64{104}, 0.3, 0.3, "unresolved", 0},
		{"ten clear wins", repeat(100, 10, 1), repeat(80, 10, 1), 0.02, 0.02, "improved", 0},
		{"one pair is not enough to improve", []float64{100}, []float64{80}, 0.02, 0.02, "unchanged", 0},
		{"eight of ten wins", repeat(100, 10, 1), append(repeat(90, 8, 1), 200, 200), 0.02, 0.02, "unresolved", 0},
		{"gap inside parent spread", repeat(100, 10, 10), repeat(95, 10, 10), 0.02, 0.02, "unresolved", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, code := compare(t, c.olds, c.news, c.oldRel, c.newRel, 0, 0)
			if code != c.code || !strings.Contains(out, " "+c.want+"\n") {
				t.Errorf("code %d, want %d; output:\n%s\nwant verdict %s", code, c.code, out, c.want)
			}
		})
	}
}

func TestMoreFailuresFail(t *testing.T) {
	out, code := compare(t, []float64{100}, []float64{100}, 0.02, 0.02, 0, 3)
	if code != 1 || !strings.Contains(out, "fail_frac") || !strings.Contains(out, "3/100") {
		t.Errorf("code %d, output:\n%s", code, out)
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
