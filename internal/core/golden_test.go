package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The golden file pins the small-seed reproduction of the paper's two
// headline artifacts — the Figure 11-style per-edge MdAPE table and the
// §5.4 global-model table — so that any change to the simulator, the
// feature engineering, or the model families that shifts the numbers is
// caught at review time. Regenerate deliberately with:
//
//	go test ./internal/core/ -run 'TestGoldenFigures$' -update
var update = flag.Bool("update", false, "regenerate testdata/golden_small_binned.json")

const goldenPath = "testdata/golden_small_binned.json"

// mdapeTol is the allowed drift in percentage points. Wide enough to absorb
// cross-platform floating-point wobble, narrow enough that perturbing any
// model constant (learning rate, rounds, threshold, seed derivation) trips it.
const mdapeTol = 0.2

// r2Tol bounds drift of the global model's R² values.
const r2Tol = 0.01

type goldenEdge struct {
	Edge     string  `json:"edge"`
	Samples  int     `json:"samples"`
	LinMdAPE float64 `json:"lin_mdape"`
	XGBMdAPE float64 `json:"xgb_mdape"`
}

type goldenGlobal struct {
	Samples  int     `json:"samples"`
	LinMdAPE float64 `json:"lin_mdape"`
	XGBMdAPE float64 `json:"xgb_mdape"`
	LinR2    float64 `json:"lin_r2"`
	XGBR2    float64 `json:"xgb_r2"`
}

type goldenFile struct {
	Config      string       `json:"config"` // provenance note, not compared
	HeadlineLin float64      `json:"headline_lin_mdape"`
	HeadlineXGB float64      `json:"headline_xgb_mdape"`
	Edges       []goldenEdge `json:"edges"`
	Global      goldenGlobal `json:"global"`
}

// computeGolden runs the golden experiments on the small-world fixture,
// whose boosted trees train at the default 256 bins.
func computeGolden(t *testing.T) goldenFile {
	t.Helper()
	p, edges := smallPipeline(t)
	return computeGoldenFrom(t, p, edges)
}

// computeGoldenFrom runs the golden experiments on an explicit pipeline,
// so variant configurations of the fixture can be checked against the
// same committed figures.
func computeGoldenFrom(t *testing.T, p *Pipeline, edges []EdgeData) goldenFile {
	t.Helper()
	results, err := p.EvaluateEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenFile{Config: "simulate.SmallConfig() seed 42, GBTBins 256"}
	g.HeadlineLin, g.HeadlineXGB = HeadlineMdAPE(results)
	for _, r := range results {
		g.Edges = append(g.Edges, goldenEdge{
			Edge: r.Edge, Samples: r.Samples,
			LinMdAPE: r.LinMdAPE, XGBMdAPE: r.XGBMdAPE,
		})
	}
	gr, err := p.GlobalModel(edges)
	if err != nil {
		t.Fatal(err)
	}
	g.Global = goldenGlobal{
		Samples:  gr.Samples,
		LinMdAPE: gr.LinMdAPE, XGBMdAPE: gr.XGBMdAPE,
		LinR2: gr.LinR2, XGBR2: gr.XGBR2,
	}
	return g
}

// diffGolden compares a freshly computed run against the committed file and
// returns one message per violation. Identity fields (edge set, sample
// counts) must match exactly; error metrics may drift within tolerance.
func diffGolden(want, got goldenFile) []string {
	var problems []string
	if len(got.Edges) != len(want.Edges) {
		problems = append(problems,
			fmt.Sprintf("edge count %d, golden has %d", len(got.Edges), len(want.Edges)))
		return problems
	}
	pp := func(field string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			problems = append(problems,
				fmt.Sprintf("%s = %.4f, golden %.4f (tol %.2f)", field, got, want, tol))
		}
	}
	for i, w := range want.Edges {
		g := got.Edges[i]
		if g.Edge != w.Edge {
			problems = append(problems,
				fmt.Sprintf("edge[%d] is %s, golden %s", i, g.Edge, w.Edge))
			continue
		}
		if g.Samples != w.Samples {
			problems = append(problems,
				fmt.Sprintf("edge %s samples %d, golden %d", w.Edge, g.Samples, w.Samples))
		}
		pp("edge "+w.Edge+" lin_mdape", g.LinMdAPE, w.LinMdAPE, mdapeTol)
		pp("edge "+w.Edge+" xgb_mdape", g.XGBMdAPE, w.XGBMdAPE, mdapeTol)
	}
	pp("headline_lin_mdape", got.HeadlineLin, want.HeadlineLin, mdapeTol)
	pp("headline_xgb_mdape", got.HeadlineXGB, want.HeadlineXGB, mdapeTol)
	if got.Global.Samples != want.Global.Samples {
		problems = append(problems,
			fmt.Sprintf("global samples %d, golden %d", got.Global.Samples, want.Global.Samples))
	}
	pp("global lin_mdape", got.Global.LinMdAPE, want.Global.LinMdAPE, mdapeTol)
	pp("global xgb_mdape", got.Global.XGBMdAPE, want.Global.XGBMdAPE, mdapeTol)
	pp("global lin_r2", got.Global.LinR2, want.Global.LinR2, r2Tol)
	pp("global xgb_r2", got.Global.XGBR2, want.Global.XGBR2, r2Tol)
	return problems
}

func TestGoldenFigures(t *testing.T) {
	got := computeGolden(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, p := range diffGolden(want, got) {
		t.Error(p)
	}
	if t.Failed() {
		t.Log("model output drifted from the committed golden figures;" +
			" if intentional, regenerate with -update and explain in the PR")
	}
}

// TestGoldenDetectsDrift proves the checker has teeth: shifting any tracked
// value past its tolerance must produce a violation, and an identical copy
// must produce none.
func TestGoldenDetectsDrift(t *testing.T) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run TestGoldenFigures with -update to create it)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Edges) == 0 {
		t.Fatal("golden file has no edges")
	}

	clone := func() goldenFile {
		var c goldenFile
		cb, _ := json.Marshal(want)
		if err := json.Unmarshal(cb, &c); err != nil {
			t.Fatal(err)
		}
		return c
	}

	if p := diffGolden(want, clone()); len(p) != 0 {
		t.Fatalf("identical copy reported drift: %v", p)
	}

	perturbations := map[string]func(*goldenFile){
		"edge lin_mdape": func(g *goldenFile) { g.Edges[0].LinMdAPE += 3 * mdapeTol },
		"edge xgb_mdape": func(g *goldenFile) { g.Edges[0].XGBMdAPE -= 3 * mdapeTol },
		"edge samples":   func(g *goldenFile) { g.Edges[0].Samples++ },
		"headline":       func(g *goldenFile) { g.HeadlineXGB += 3 * mdapeTol },
		"global mdape":   func(g *goldenFile) { g.Global.LinMdAPE += 3 * mdapeTol },
		"global r2":      func(g *goldenFile) { g.Global.XGBR2 += 3 * r2Tol },
		"edge renamed":   func(g *goldenFile) { g.Edges[0].Edge = "bogus->edge" },
	}
	for name, perturb := range perturbations {
		got := clone()
		perturb(&got)
		if p := diffGolden(want, got); len(p) == 0 {
			t.Errorf("perturbation %q not detected", name)
		}
	}
}
