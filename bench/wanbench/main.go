// Command wanbench is the repository's end-to-end and per-layer
// benchmark. It runs five workloads that stress different parts of the
// three pipelines — offline reproduction (repro), bulk simulation and log
// I/O (scale), the serving daemon's front door (serve-single) and kernel
// (serve-batch), and the online refresh loop beside live reads (refresh)
// — checks that their outputs are correct, and reports the metrics
// BENCHMARK.json at the repository root declares. See README.md.
//
// Run it through run.sh, which builds it and the wanperf binary under test:
//
//	bash bench/wanbench/run.sh --workload serve-batch --seed 42 --seconds 12 --trace 0
//	bash bench/wanbench/run.sh -seed 42 -out bench/results/<label>.json
//
// The first form runs one workload and prints one JSON object as its last
// line of output: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run. The second runs every workload untraced and
// then traced, prints every metric by name with its unit, and writes a
// result file (plus <label>.trace.json with the spans) that benchcmp
// compares.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	_ "embed"

	"repro/internal/obs"
)

// workloads in run order; each names its runner.
var workloads = []struct {
	name string
	run  func(*runConfig) (*outcome, error)
}{
	{"repro", func(rc *runConfig) (*outcome, error) { return runOffline(rc, "repro") }},
	{"scale", func(rc *runConfig) (*outcome, error) { return runOffline(rc, "scale") }},
	{"serve-single", func(rc *runConfig) (*outcome, error) { return runServe(rc, false) }},
	{"serve-batch", func(rc *runConfig) (*outcome, error) { return runServe(rc, true) }},
	{"refresh", runRefresh},
}

// runConfig is what one workload run needs.
type runConfig struct {
	wanperf string // the wanperf binary under test
	self    string // this binary, re-run for offline passes
	work    string // scratch directory for this run, removed afterwards
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *obs.Tracer // nil when untraced
	nproc   int
}

// setups is how many times the serving workloads set up: several when
// setup_s is measured, once in a traced run.
func (rc *runConfig) setups() int {
	if rc.traced {
		return 1
	}
	return setupRepeats
}

// check is one output-correctness check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// spanGroup is the spans one process recorded.
type spanGroup struct {
	Source string             `json:"source"`
	Spans  []obs.SpanSnapshot `json:"spans"`
}

// outcome is one workload run's result.
type outcome struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Checks    []check         `json:"checks"`
	E2E       map[string]Stat `json:"end_to_end"`
	Layers    map[string]Stat `json:"per_layer,omitempty"`
	Info      map[string]any  `json:"info"`
	Spans     []spanGroup     `json:"-"`
}

func newOutcome() *outcome { return &outcome{Correct: true, Info: map[string]any{}} }

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.Checks = append(o.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	o.Correct = o.Correct && ok
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds the outputs stored for seed 42.
var golden struct {
	ReproHeadline map[string]struct {
		Lin float64 `json:"lin_mdape"`
		XGB float64 `json:"xgb_mdape"`
	} `json:"repro_headline"`
	ScaleSHA256 map[string]string `json:"scale_columnar_sha256"`
}

func main() {
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintln(os.Stderr, "wanbench: testdata/golden.json:", err)
		os.Exit(1)
	}
	code, err := realMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wanbench:", err)
	}
	os.Exit(code)
}

func realMain(args []string) (int, error) {
	fs := flag.NewFlagSet("wanbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 42, "input seed")
	seconds := fs.Int("seconds", 15, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	outPath := fs.String("out", "", "run every selected workload untraced and traced and write a result file here")
	root := fs.String("root", ".", "repository checkout the binaries were built from")
	wanperf := fs.String("wanperf", "", "wanperf binary under test")
	childKind := fs.String("child", "", "internal: run one offline pass of this workload")
	work := fs.String("work", "", "internal: scratch directory of an offline pass")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if *childKind != "" {
		if err := runChild(*childKind, *seed, *trace == 1, *work); err != nil {
			return 1, err
		}
		return 0, nil
	}
	if *wanperf == "" {
		return 2, errors.New("-wanperf is required (run through run.sh)")
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	var selected []int
	for i, w := range workloads {
		if *workload == "all" || *workload == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if *outPath == "" && len(selected) != 1 {
		return 2, errors.New("-workload all needs -out")
	}
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	base := runConfig{
		wanperf: *wanperf, self: self, seed: *seed, nproc: nproc,
		seconds: time.Duration(*seconds) * time.Second,
	}
	scratch, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)

	if *outPath == "" {
		w := workloads[selected[0]]
		rc := base
		rc.traced = *trace == 1
		out, err := runOne(rc, scratch, w.name, w.run)
		if err != nil {
			return 1, err
		}
		return 0, printResultLine(out, rc.traced)
	}
	return fullRun(base, scratch, *root, *outPath, selected)
}

// runOne runs one workload in its own scratch directory.
func runOne(rc runConfig, scratch, name string, run func(*runConfig) (*outcome, error)) (*outcome, error) {
	rc.work = filepath.Join(scratch, name)
	if rc.traced {
		rc.work += "-traced"
	}
	if err := os.MkdirAll(rc.work, 0o755); err != nil {
		return nil, err
	}
	if rc.traced {
		rc.tr = obs.NewTracer()
	}
	fmt.Fprintf(os.Stderr, "wanbench: %s (seed %d, %v, traced %v)\n", name, rc.seed, rc.seconds, rc.traced)
	out, err := run(&rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if rc.traced {
		out.Spans = append(out.Spans, spanGroup{Source: "wanbench", Spans: rc.tr.Snapshot()})
	}
	if err := checkDeclared(out, rc.traced); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return out, nil
}

// checkDeclared fails a run whose metrics differ from the catalog, so a
// metric is never silently missing or undeclared.
func checkDeclared(out *outcome, traced bool) error {
	got, want := out.E2E, endToEnd
	if traced {
		got, want = out.Layers, perLayer
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, the catalog declares %d", len(got), len(want))
	}
	for _, m := range want {
		s, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not reported", m.Name)
		}
		if s.Unit != m.Unit {
			return fmt.Errorf("metric %s reported in %s, declared in %s", m.Name, s.Unit, m.Unit)
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints the one-line result: end-to-end metrics, or
// per-layer metrics for a traced run.
func printResultLine(out *outcome, traced bool) error {
	src := out.E2E
	if traced {
		src = out.Layers
	}
	metrics := make(map[string]metricValue, len(src))
	for k, s := range src {
		metrics[k] = metricValue{Value: s.Value, Unit: s.Unit}
	}
	for _, c := range out.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "wanbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultFile is what -out writes and benchcmp reads.
type resultFile struct {
	Schema    int                        `json:"schema"`
	Label     string                     `json:"label"`
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	*outcome
	// Traced is the traced run: its per-layer metrics, and its end-to-end
	// metrics, whose difference from the untraced ones is the tracing
	// overhead.
	Traced         *outcome           `json:"traced"`
	TraceOverhead  map[string]float64 `json:"trace_overhead"`
	SelfMS         map[string]float64 `json:"self_ms"`
	LayerSumToPass float64            `json:"layer_sum_to_pass,omitempty"`
}

func fullRun(base runConfig, scratch, root, outPath string, selected []int) (int, error) {
	rf := resultFile{
		Schema:    1,
		Label:     trimExt(filepath.Base(outPath)),
		Host:      collectHost(root, base.seed),
		Seed:      base.seed,
		Seconds:   int(base.seconds / time.Second),
		Workloads: map[string]*workloadResult{},
	}
	var traces []spanGroup
	allOK := true
	for _, i := range selected {
		w := workloads[i]
		plain, err := runOne(base, scratch, w.name, w.run)
		if err != nil {
			return 1, err
		}
		rc := base
		rc.traced = true
		traced, err := runOne(rc, scratch, w.name, w.run)
		if err != nil {
			return 1, err
		}
		wr := &workloadResult{outcome: plain, Traced: traced, TraceOverhead: map[string]float64{}}
		for k, s := range plain.E2E {
			wr.TraceOverhead[k] = traced.E2E[k].Value - s.Value
		}
		wr.SelfMS = selfTimes(traced.Spans)
		if w.name == "repro" || w.name == "scale" {
			wr.LayerSumToPass = passLayerSum(traced.Spans) / plain.E2E["p50_ms"].Value
		}
		rf.Workloads[w.name] = wr
		allOK = allOK && plain.Correct && traced.Correct
		for _, g := range traced.Spans {
			traces = append(traces, spanGroup{Source: w.name + ": " + g.Source, Spans: g.Spans})
		}
		printTable(w.name, wr)
	}
	if err := writeJSON(outPath, rf); err != nil {
		return 1, err
	}
	tracePath := trimExt(outPath) + ".trace.json"
	if err := writeJSON(tracePath, struct {
		Groups []spanGroup `json:"groups"`
	}{traces}); err != nil {
		return 1, err
	}
	fmt.Printf("wrote %s and %s\n", outPath, tracePath)
	if !allOK {
		return 1, errors.New("an output check failed")
	}
	return 0, nil
}

func trimExt(p string) string { return p[:len(p)-len(filepath.Ext(p))] }

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints every metric of one workload by name with its unit.
func printTable(name string, wr *workloadResult) {
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", name, wr.Correct && wr.Traced.Correct, wr.Attempted, wr.Failed)
	for _, c := range append(append([]check(nil), wr.Checks...), wr.Traced.Checks...) {
		fmt.Printf("   check %-36s ok=%-5v %s\n", c.Name, c.OK, c.Detail)
	}
	for _, m := range endToEnd {
		s := wr.E2E[m.Name]
		fmt.Printf("   %-36s %14.4f %-8s [q1 %.4f q3 %.4f n %d]\n", m.Name, s.Value, m.Unit, s.Q1, s.Q3, s.N)
	}
	for _, m := range perLayer {
		s := wr.Traced.Layers[m.Name]
		fmt.Printf("   %-36s %14.4f %s\n", m.Name, s.Value, m.Unit)
	}
	if wr.LayerSumToPass != 0 {
		fmt.Printf("   traced pass layers / untraced p50_ms  %.3f\n", wr.LayerSumToPass)
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func selfTimes(groups []spanGroup) map[string]float64 {
	out := map[string]float64{}
	for _, g := range groups {
		kids := map[int][][2]float64{}
		for _, s := range g.Spans {
			if s.Parent != 0 {
				kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartMS, s.StartMS + s.DurMS})
			}
		}
		for _, s := range g.Spans {
			out[s.Name] += s.DurMS - covered(kids[s.ID], s.StartMS, s.StartMS+s.DurMS)
		}
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// passLayerSum is the summed duration of the layer spans directly under
// an offline pass's root span, in ms.
func passLayerSum(groups []spanGroup) float64 {
	sum := 0.0
	for _, g := range groups {
		roots := map[int]bool{}
		for _, s := range g.Spans {
			if s.Parent == 0 && strings.HasPrefix(s.Name, "pass.") {
				roots[s.ID] = true
			}
		}
		for _, s := range g.Spans {
			if roots[s.Parent] {
				sum += s.DurMS
			}
		}
	}
	return sum
}
