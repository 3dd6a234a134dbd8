package core

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// exactGoldenPath holds the golden figures the exact greedy GBT search
// produced on the small world before training was always binned. Nothing
// in production can regenerate it; it stays as read-only reference data
// for the histogram trainer's experiment-level tolerance contract.
const exactGoldenPath = "testdata/golden_small.json"

// histMdAPETol bounds how far a per-edge histogram XGB MdAPE may sit from
// the exact search's committed value, in percentage points. It absorbs
// the quantile-coarsening wobble on edges whose training sets exceed 256
// distinct values per feature; drift beyond it means the histogram
// trainer is no longer a faithful approximation of the exact search.
const histMdAPETol = 0.5

// TestGoldenFiguresBinned runs the golden-figure harness on a copy of the
// fixture pipeline with GBTBins set explicitly to 256. The knob's default
// (0) must resolve to the same quantization, so the run must reproduce the
// default fixture's figures exactly and hold the committed golden figures
// within the usual tolerances.
func TestGoldenFiguresBinned(t *testing.T) {
	p, edges := smallPipeline(t)
	// Shallow copy: the variant shares the simulated world and
	// observability sink, differing only in the quantization knob.
	bp := *p
	bp.GBTBins = 256
	got := computeGoldenFrom(t, &bp, edges)

	if def := computeGolden(t); !reflect.DeepEqual(got, def) {
		t.Errorf("GBTBins 256 figures differ from the default pipeline's:\n got %+v\nwant %+v", got, def)
	}

	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, p := range diffGolden(want, got) {
		t.Error(p)
	}
}

// TestBinnedTracksExactPerEdge pins the histogram-vs-exact tolerance
// contract at the experiment level: on the golden small world, every
// edge's XGB MdAPE stays within histMdAPETol of the exact search's
// committed value.
func TestBinnedTracksExactPerEdge(t *testing.T) {
	b, err := os.ReadFile(exactGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	got := computeGolden(t)
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge count %d, golden has %d", len(got.Edges), len(want.Edges))
	}
	for i, w := range want.Edges {
		g := got.Edges[i]
		if d := math.Abs(g.XGBMdAPE - w.XGBMdAPE); d > histMdAPETol {
			t.Errorf("edge %s: binned XGB MdAPE %.4f vs exact %.4f (drift %.4f > %.2fpp)",
				w.Edge, g.XGBMdAPE, w.XGBMdAPE, d, histMdAPETol)
		}
	}
	if d := math.Abs(got.HeadlineXGB - want.HeadlineXGB); d > histMdAPETol {
		t.Errorf("headline XGB MdAPE drift %.4f > %.2fpp", d, histMdAPETol)
	}
}
