package gbt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ml/dataset"
)

// Committed model digests: the SHA-256 of the serialized model for a set
// of seeded training runs of the trainer and of the exact reference
// (trainReference). Any change to a trainer that alters a single threshold, weight or gain bit changes a
// digest, so a performance rewrite of the split search is held to
// bit-identity here, in tier-1, rather than by end-to-end benchmark
// goldens. The histogram datasets are sparse in bin space (n well below
// 256 × features), the regime the study edges train in. Regenerate
// deliberately with:
//
//	go test ./internal/ml/gbt/ -run TestHistModelDigests -update
var update = flag.Bool("update", false, "regenerate testdata/hist_digests.json")

const digestPath = "testdata/hist_digests.json"

// digestCase is one seeded training run whose model digest is pinned.
type digestCase struct {
	name  string
	train func(t *testing.T) *Model
}

func digestCases() []digestCase {
	// sparse: ~450 rows over 12 features at 256 bins, the size of a study
	// edge's training split.
	sparse := func(t *testing.T) *dataset.Dataset { return equivDataset(t, 450, 12, 101, 0) }
	// ties: coarse-grid values, so many rows share a bin and most bins of
	// a 256-bin histogram stay empty.
	ties := func(t *testing.T) *dataset.Dataset { return equivDataset(t, 300, 6, 102, 0.25) }
	// wide: 1,500 rows trained at Workers = 4, which sets batch-inference
	// goroutines only: the model must not depend on it.
	wide := func(t *testing.T) *dataset.Dataset { return equivDataset(t, 1500, 10, 103, 0) }
	train := func(mk func(*testing.T) *dataset.Dataset, edit func(*Params)) func(*testing.T) *Model {
		return func(t *testing.T) *Model {
			p := histParams(256)
			p.Rounds = 60
			if edit != nil {
				edit(&p)
			}
			m, err := Train(mk(t), p)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	exact := func(mk func(*testing.T) *dataset.Dataset, edit func(*Params)) func(*testing.T) *Model {
		return func(t *testing.T) *Model {
			p := DefaultParams()
			p.Rounds = 60
			if edit != nil {
				edit(&p)
			}
			return trainReference(mk(t), p)
		}
	}
	return []digestCase{
		{"default_rows0.9", train(sparse, nil)},
		{"rows0.5", train(sparse, func(p *Params) { p.SubsampleRows = 0.5 })},
		{"cols0.7", train(sparse, func(p *Params) { p.SubsampleCols = 0.7 })},
		{"minchild3_gamma", train(sparse, func(p *Params) { p.MinChildWeight = 3; p.Gamma = 0.05 })},
		{"ties_rows1_depth6", train(ties, func(p *Params) { p.SubsampleRows = 1; p.MaxDepth = 6 })},
		{"ties_bins16", train(ties, func(p *Params) { p.Bins = 16 })},
		{"wide_workers4", train(wide, func(p *Params) { p.Workers = 4; p.SubsampleCols = 0.7 })},
		{"binned_view", func(t *testing.T) *Model {
			bd, err := dataset.Bin(sparse(t), 256)
			if err != nil {
				t.Fatal(err)
			}
			view := make([]int, 0, 300)
			for i := 0; i < bd.Len(); i++ {
				if i%3 != 1 {
					view = append(view, i)
				}
			}
			p := histParams(256)
			p.Rounds = 60
			m, err := TrainBinned(bd, view, p)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"exact_rows0.9", exact(sparse, nil)},
		{"exact_nosubsample", exact(sparse, func(p *Params) { p.SubsampleRows = 1 })},
		{"exact_ties_rows0.6_cols0.5", exact(ties, func(p *Params) {
			p.SubsampleRows = 0.6
			p.SubsampleCols = 0.5
		})},
		{"warm_continuation", func(t *testing.T) *Model {
			p := histParams(256)
			p.Rounds = 40
			prev, err := Train(sparse(t), p)
			if err != nil {
				t.Fatal(err)
			}
			p.Rounds = 20
			p.Seed = 7
			m, err := TrainWarm(equivDataset(t, 400, 12, 104, 0), p, prev)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
}

// TestHistModelDigests pins the trainer's and the exact reference's
// output bit for bit.
func TestHistModelDigests(t *testing.T) {
	got := map[string]string{}
	for _, c := range digestCases() {
		sum := sha256.Sum256(modelBytes(t, c.train(t)))
		got[c.name] = hex.EncodeToString(sum[:])
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", digestPath)
		return
	}
	b, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d committed digests, %d cases", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no committed digest (run with -update)", name)
		} else if g != w {
			t.Errorf("%s: model digest %s, committed %s", name, g[:16], w[:16])
		}
	}
}
