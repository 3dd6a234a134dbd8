package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simulate"
)

func TestNeedsPipeline(t *testing.T) {
	for _, cmd := range []string{"table1", "fig3", "lmt", "chaos"} {
		if needsPipeline(cmd) {
			t.Errorf("%s should not need a pipeline", cmd)
		}
	}
	for _, cmd := range []string{"simulate", "edges", "models", "fig9", "eq1", "ablation", "all"} {
		if !needsPipeline(cmd) {
			t.Errorf("%s should need a pipeline", cmd)
		}
	}
}

func TestRunUnknownCommand(t *testing.T) {
	cfg := simulate.SmallConfig()
	// Unknown commands need a pipeline (the default path), so this also
	// exercises the simulate-then-dispatch flow end to end.
	err := run(context.Background(), "definitely-not-a-command", cfg, options{}, nil)
	if err == nil {
		t.Fatal("unknown command accepted")
	}
	if !errors.Is(err, errUsage) {
		t.Errorf("unknown command error %v should map to exit code 2", err)
	}
}

func TestRealMainExitCodes(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		args []string
		want int
	}{
		{nil, 2},                                    // no command
		{[]string{"help"}, 0},                       // explicit help
		{[]string{"edges", "-badflag"}, 2},          // flag error
		{[]string{"chaos", "-intensities", "x"}, 2}, // unparseable intensity
		{[]string{"chaos", "-intensities", "-1"}, 2},
	}
	for _, c := range cases {
		if got := realMain(ctx, c.args); got != c.want {
			t.Errorf("realMain(%q) = %d, want %d", c.args, got, c.want)
		}
	}
}

func TestRealMainCancelledIsRuntimeError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := realMain(ctx, []string{"edges", "-small"}); got != 1 {
		t.Errorf("cancelled run exited %d, want 1", got)
	}
}

// TestObsFlagsEndToEnd drives a full command through realMain with
// -metrics and -trace and checks both artifacts are valid JSON carrying
// the engine counters and the phase spans the issue promises.
func TestObsFlagsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mfile := filepath.Join(dir, "metrics.json")
	tfile := filepath.Join(dir, "trace.json")
	if code := realMain(context.Background(),
		[]string{"edges", "-small", "-metrics", mfile, "-trace", tfile}); code != 0 {
		t.Fatalf("realMain exited %d", code)
	}

	var snap obs.MetricsSnapshot
	mb, err := os.ReadFile(mfile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	for _, name := range []string{"sim.events", "sim.transfers_completed", "pipeline.records", "pool.tasks"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}

	var tr struct {
		Spans []obs.SpanSnapshot `json:"spans"`
	}
	tb, err := os.ReadFile(tfile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tb, &tr); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	want := map[string]bool{"wanperf.edges": false, "simulate": false, "features": false}
	for _, sp := range tr.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
		if sp.Open {
			t.Errorf("span %s left open", sp.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace missing span %q", name)
		}
	}
}

// TestRegistryTraceSpans checks that `wanperf registry -trace` measures
// every stage of time-to-serve directly: simulate, features, the registry
// build and the registry write, each closed and nested under the command's
// root span.
func TestRegistryTraceSpans(t *testing.T) {
	dir := t.TempDir()
	tfile := filepath.Join(dir, "trace.json")
	if code := realMain(context.Background(), []string{"registry", "-small",
		"-out", filepath.Join(dir, "registry.json"), "-trace", tfile}); code != 0 {
		t.Fatalf("realMain exited %d", code)
	}
	tb, err := os.ReadFile(tfile)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []obs.SpanSnapshot `json:"spans"`
	}
	if err := json.Unmarshal(tb, &tr); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	rootID := -1
	for _, sp := range tr.Spans {
		if sp.Name == "wanperf.registry" {
			rootID = sp.ID
		}
	}
	for _, name := range []string{"simulate", "features", "registry.build", "registry.write"} {
		found := false
		for _, sp := range tr.Spans {
			if sp.Name != name {
				continue
			}
			found = true
			if sp.Open || sp.Parent != rootID {
				t.Errorf("span %s: open=%v parent=%d, want closed under wanperf.registry (%d)", name, sp.Open, sp.Parent, rootID)
			}
		}
		if !found {
			t.Errorf("trace missing span %q", name)
		}
	}
}

// TestObsFlagsParsed pins the flag plumbing without running a pipeline.
func TestObsFlagsParsed(t *testing.T) {
	_, _, opts, err := parseArgs([]string{"edges",
		"-metrics", "m.json", "-trace", "t.json", "-pprof", "localhost:0"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.metrics != "m.json" || opts.trace != "t.json" || opts.pprofAddr != "localhost:0" {
		t.Errorf("obs flags not parsed: %+v", opts)
	}
}

// TestGBTBinsFlag pins -gbt-bins to the trainer's 2..256 range: anything
// else is a usage error at parse time, before any simulation runs.
func TestGBTBinsFlag(t *testing.T) {
	for _, c := range []struct {
		value string
		ok    bool
	}{
		{"-1", false}, {"0", false}, {"1", false}, {"257", false},
		{"2", true}, {"64", true}, {"256", true},
	} {
		_, _, opts, err := parseArgs([]string{"models", "-gbt-bins", c.value})
		if !c.ok {
			if !errors.Is(err, errUsage) {
				t.Errorf("-gbt-bins %s: got %v, want usage error", c.value, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-gbt-bins %s: %v", c.value, err)
		} else if got := strconv.Itoa(opts.gbtBins); got != c.value {
			t.Errorf("-gbt-bins %s parsed as %s", c.value, got)
		}
	}
}

func TestParseIntensities(t *testing.T) {
	got, err := parseIntensities(" 0, 0.5,2 ,4,")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0.5, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	for _, bad := range []string{"", ",,", "a", "1;2", "-0.5"} {
		if _, err := parseIntensities(bad); err == nil {
			t.Errorf("intensity list %q accepted", bad)
		}
	}
}

// TestChaosCommand runs the chaos sweep end to end through the command
// dispatcher on a tiny fabric, twice, pinning determinism.
func TestChaosCommand(t *testing.T) {
	cfg := simulate.SmallConfig()
	cfg.Horizon = 5 * 24 * 3600
	cfg.HeavyEdges = 3
	cfg.HeavyTransfersMean = 300
	cfg.TailEdges = 5
	cfg.HubEndpoints = 5
	cfg.PersonalEndpoints = 4

	sweep := func() []core.ChaosPoint {
		t.Helper()
		ccfg := chaos.DefaultConfig(cfg.Seed, cfg.Horizon)
		points, err := core.ChaosSweep(context.Background(), cfg, ccfg,
			[]float64{0, 3}, 60, 2)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	a, b := sweep(), sweep()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("sweeps returned %d and %d points, want 2 each", len(a), len(b))
	}
	for i := range a {
		if a[i].Transfers != b[i].Transfers || a[i].MeanFaults != b[i].MeanFaults ||
			a[i].Aborts != b[i].Aborts {
			t.Errorf("point %d differs across identical sweeps: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Transfers == 0 {
		t.Error("chaos sweep produced no transfers")
	}
	if out := core.RenderChaos(a); out == "" {
		t.Error("empty rendering")
	}
}

func TestFig5EdgePrefersServerToServer(t *testing.T) {
	pl, err := core.Run(simulate.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	edges := pl.StudyEdges()
	if len(edges) == 0 {
		t.Skip("no study edges in the small world")
	}
	ed, err := fig5Edge(pl, edges)
	if err != nil {
		t.Fatal(err)
	}
	// The result must be one of the study edges.
	found := false
	for _, e := range edges {
		if e.Edge == ed.Edge {
			found = true
		}
	}
	if !found {
		t.Errorf("fig5Edge returned %s, not in the study set", ed.Edge)
	}
	// If any qualifying GCS→GCS edge exists, a GCS→GCS edge is chosen.
	hasServerPair := false
	for _, e := range edges {
		if pl.Log.EndpointTypeOf(e.Edge.Src).String() == "GCS" &&
			pl.Log.EndpointTypeOf(e.Edge.Dst).String() == "GCS" && len(e.All) >= 500 {
			hasServerPair = true
		}
	}
	if hasServerPair {
		if pl.Log.EndpointTypeOf(ed.Edge.Src).String() != "GCS" ||
			pl.Log.EndpointTypeOf(ed.Edge.Dst).String() != "GCS" {
			t.Errorf("fig5Edge picked %s despite server pairs being available", ed.Edge)
		}
	}
}

func TestFig5EdgeEmpty(t *testing.T) {
	pl, err := core.Run(simulate.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fig5Edge(pl, nil); err == nil {
		t.Error("empty edge list accepted")
	}
}
