// Command benchcmp compares wanbench result files of a parent commit
// (old) and a change (new). For every workload and every end-to-end
// metric BENCHMARK.json declares, it prints both sides' medians and
// quartiles and a verdict:
//
//   - improved: at least 10 old/new pairs, the change wins at least 9 in
//     10 of them (ties count for neither), and the medians differ by more
//     than the spread between the parent's own runs (their quartile gap);
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: not regressed, but the spread is wider than the bound,
//     unless every new run reads better than every old one;
//   - unchanged: otherwise.
//
// The spread is the quartile gap of the per-run values as a share of
// their median. With fewer than four runs on a side it is estimated from
// the samples inside each run (passes, set-ups, phase windows), which
// the result file stores: the quartile gap of a median of n samples is
// about 1.25/√n times the samples' own quartile gap. It also compares the share of
// failed operations. benchcmp exits 1 when any metric regressed, the
// failed share rose, or a new run failed an output check.
//
// Usage (from the repository root):
//
//	benchcmp OLD.json NEW.json
//	benchcmp -old a1.json,a2.json,... -new b1.json,b2.json,...
//
// With lists, old[i] and new[i] form pair i; run the pairs alternating
// which side goes first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json benchcmp reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the part of a wanbench result file benchcmp reads.
type result struct {
	Host      map[string]any      `json:"host"`
	Workloads map[string]workload `json:"workloads"`
}

type workload struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	E2E       map[string]stat `json:"end_to_end"`
}

type stat struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration")
	oldList := fs.String("old", "", "comma-separated result files of the parent")
	newList := fs.String("new", "", "comma-separated result files of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	oldPaths, newPaths := split(*oldList), split(*newList)
	if len(oldPaths) == 0 && len(newPaths) == 0 && fs.NArg() == 2 {
		oldPaths, newPaths = fs.Args()[:1], fs.Args()[1:]
	}
	if len(oldPaths) == 0 || len(newPaths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp OLD.json NEW.json | -old a.json,... -new b.json,...")
		return 2
	}
	var spec benchSpec
	if err := readJSON(*benchPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 2
	}
	olds, err := readAll(oldPaths)
	if err == nil {
		var news []result
		if news, err = readAll(newPaths); err == nil {
			return report(w, spec, olds, news)
		}
	}
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	return 2
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readAll(paths []string) ([]result, error) {
	out := make([]result, len(paths))
	for i, p := range paths {
		if err := readJSON(p, &out[i]); err != nil {
			return nil, err
		}
		if len(out[i].Workloads) == 0 {
			return nil, fmt.Errorf("%s: no workloads", p)
		}
	}
	return out, nil
}

// Verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
)

// side is one metric's values on one side: one per run, plus each run's
// own quartiles.
type side struct {
	vals        []float64
	q1s, q3s    []float64
	ns          []int
	med, q1, q3 float64
}

func collect(rs []result, wl, metric string) (side, bool) {
	var s side
	for _, r := range rs {
		w, ok := r.Workloads[wl]
		if !ok {
			return s, false
		}
		st, ok := w.E2E[metric]
		if !ok {
			return s, false
		}
		s.vals = append(s.vals, st.Value)
		s.q1s = append(s.q1s, st.Q1)
		s.q3s = append(s.q3s, st.Q3)
		s.ns = append(s.ns, st.N)
	}
	if len(s.vals) == 1 {
		s.med, s.q1, s.q3 = s.vals[0], s.q1s[0], s.q3s[0]
	} else {
		s.q1, s.med, s.q3 = quartiles(s.vals)
	}
	return s, true
}

// spread is the side's run-to-run quartile gap as a share of its median,
// from the per-run values when there are at least four runs and estimated
// from the runs' own sample quartiles otherwise.
func (s side) spread() float64 {
	if s.med == 0 {
		return math.Inf(1)
	}
	if len(s.vals) >= 4 {
		return (s.q3 - s.q1) / math.Abs(s.med)
	}
	var rel []float64
	for i, v := range s.vals {
		rel = append(rel, 1.25*(s.q3s[i]-s.q1s[i])/math.Abs(v)/math.Sqrt(float64(max(s.ns[i], 1))))
	}
	_, m, _ := quartiles(rel)
	return m
}

// verdict applies the rules in the package comment.
func verdict(m metricSpec, old, cur side) (string, float64) {
	lower := m.Better == "lower"
	better := func(n, o float64) bool {
		if lower {
			return n < o
		}
		return n > o
	}
	worse := (cur.med - old.med) / math.Abs(old.med)
	if !lower {
		worse = -worse
	}
	pairs := min(len(old.vals), len(cur.vals))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(cur.vals[i], old.vals[i]) {
			wins++
		}
	}
	oldIQR := old.q3 - old.q1
	if len(old.vals) < 2 {
		oldIQR = old.q3s[0] - old.q1s[0]
	}
	switch {
	case pairs >= 10 && 10*wins >= 9*pairs && math.Abs(cur.med-old.med) > oldIQR && worse < 0:
		return improved, worse
	case worse > m.Bound:
		return regressed, worse
	case math.Max(old.spread(), cur.spread()) > m.Bound && !allBetter(cur.vals, old.vals, better):
		return unresolved, worse
	}
	return unchanged, worse
}

func allBetter(cur, old []float64, better func(n, o float64) bool) bool {
	for _, n := range cur {
		for _, o := range old {
			if !better(n, o) {
				return false
			}
		}
	}
	return true
}

// report prints one row per (workload, metric) and returns the exit code.
func report(w io.Writer, spec benchSpec, olds, news []result) int {
	code := 0
	for _, k := range []string{"nproc", "cpu_model", "go_version"} {
		if fmt.Sprint(olds[0].Host[k]) != fmt.Sprint(news[0].Host[k]) {
			fmt.Fprintf(w, "warning: host %s differs: %v vs %v\n", k, olds[0].Host[k], news[0].Host[k])
		}
	}
	fmt.Fprintf(w, "%d old run(s), %d new run(s)\n", len(olds), len(news))
	fmt.Fprintf(w, "%-13s %-12s %28s %28s %8s %6s  %s\n", "workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "worse", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			old, ok1 := collect(olds, wl.Name, m.Name)
			cur, ok2 := collect(news, wl.Name, m.Name)
			if !ok1 || !ok2 {
				continue
			}
			v, worse := verdict(m, old, cur)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-12s %28s %28s %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name,
				fmtSide(old), fmtSide(cur), 100*worse, 100*m.Bound, v)
		}
		of, oa, ok1 := failures(olds, wl.Name)
		nf, na, ok2 := failures(news, wl.Name)
		if !ok1 || !ok2 {
			continue
		}
		v := unchanged
		if float64(nf)/float64(na) > float64(of)/float64(oa) {
			v, code = regressed, 1
		}
		fmt.Fprintf(w, "%-13s %-12s %28s %28s %8s %6s  %s\n", wl.Name, "fail_frac",
			fmt.Sprintf("%d/%d", of, oa), fmt.Sprintf("%d/%d", nf, na), "", "", v)
		for i, r := range news {
			if !r.Workloads[wl.Name].Correct {
				fmt.Fprintf(w, "%-13s new run %d failed an output check\n", wl.Name, i)
				code = 1
			}
		}
	}
	return code
}

func failures(rs []result, wl string) (failed, attempted int, ok bool) {
	for _, r := range rs {
		w, found := r.Workloads[wl]
		if !found {
			return 0, 0, false
		}
		failed += w.Failed
		attempted += w.Attempted
	}
	return failed, attempted, attempted > 0
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", s.med, s.q1, s.q3)
}

// quartiles uses the "exclusive" interpolation of Python's
// statistics.quantiles(n=4).
func quartiles(vals []float64) (q1, med, q3 float64) {
	if len(vals) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
