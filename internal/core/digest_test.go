package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The golden files hold the binned pipeline's figures within tolerance;
// this digest holds its per-edge models bit for bit. It hashes every
// edge's XGB test-set errors and gain importances from EvaluateEdges on
// the small world at GBTBins = 256 (the path `wanperf models` runs), so a
// change to the histogram trainer that moves any prediction or split gain
// by one ulp fails here. Regenerate deliberately with:
//
//	go test ./internal/core/ -run TestEvaluateEdgesBinnedDigest -update
const evalDigestPath = "testdata/evaluate_binned_digest.json"

type evalDigest struct {
	Config string            `json:"config"` // provenance note, not compared
	Edges  map[string]string `json:"edges"`  // edge → SHA-256 of XGBAPEs and XGBImport
}

func TestEvaluateEdgesBinnedDigest(t *testing.T) {
	p, edges := smallPipeline(t)
	bp := *p
	bp.GBTBins = 256
	results, err := bp.EvaluateEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	got := evalDigest{Config: "simulate.SmallConfig() seed 42, GBTBins 256", Edges: map[string]string{}}
	for _, r := range results {
		h := sha256.New()
		var buf [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, v := range r.XGBAPEs {
			put(v)
		}
		names := make([]string, 0, len(r.XGBImport))
		for name := range r.XGBImport {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h.Write([]byte(name))
			put(r.XGBImport[name])
		}
		got.Edges[r.Edge] = hex.EncodeToString(h.Sum(nil))
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(evalDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(evalDigestPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", evalDigestPath)
		return
	}
	b, err := os.ReadFile(evalDigestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want evalDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Edges) != len(got.Edges) {
		t.Errorf("%d committed edge digests, %d edges evaluated", len(want.Edges), len(got.Edges))
	}
	for edge, g := range got.Edges {
		if w, ok := want.Edges[edge]; !ok {
			t.Errorf("edge %s: no committed digest (run with -update)", edge)
		} else if g != w {
			t.Errorf("edge %s: XGB APE/importance digest %s, committed %s", edge, g[:16], w[:16])
		}
	}
}
