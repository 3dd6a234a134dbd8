package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/pool"
)

// probesPerModel is how many sanity predictions Build embeds per model.
// Each probe pins one (input, output) pair bit-for-bit, so even a single
// flipped weight in a serialized tree is overwhelmingly likely to trip at
// least one probe at load time.
const probesPerModel = 3

// Build trains the serving registry from a pipeline: one prediction model
// per study edge on its qualifying transfers, plus a global fallback
// pooled over every study edge, all on the paper's 15 prediction features
// (faults excluded — unknown before a transfer runs). Unlike the
// evaluation models these train on all qualifying rows (no held-out
// split): the registry is the production artifact, not an experiment.
// The global model and the edge models train side by side on one worker
// pool, one goroutine per fit, the global model first because it is the
// largest. Output is deterministic in the pipeline's seed, whatever the
// worker count or finishing order, because each model's seed is derived
// from its name and each fit fills its own slot.
func Build(ctx context.Context, pl *core.Pipeline, edges []core.EdgeData) (*Registry, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("serve: no study edges to build a registry from")
	}
	reg := &Registry{
		Features:  append([]string(nil), features.Names...),
		Edges:     make(map[string]*gbt.Model, len(edges)),
		Tolerance: 1e-6,
	}

	var allIdx []int
	for _, ed := range edges {
		allIdx = append(allIdx, ed.Qualifying...)
	}
	// Task 0 is the global model, the largest fit, so it starts first and
	// the edge models fill the other workers around it.
	models := make([]*gbt.Model, 1+len(edges))
	err := pool.ForEach(ctx, len(models), pool.Workers(), func(_ context.Context, i int) error {
		idx, name, what := allIdx, "global", "global model"
		if i > 0 {
			ed := edges[i-1]
			idx, name, what = ed.Qualifying, ed.Edge.String(), "edge "+ed.Edge.String()
		}
		m, err := trainServing(pl, idx, edgeSeed(name))
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		models[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Embed sanity probes: the model's own predictions on a few of its
	// training rows, recorded at build time.
	reg.Global = models[0]
	for i, ed := range edges {
		key := ed.Edge.String()
		reg.Edges[key] = models[1+i]
		probes, err := makeProbes(pl, key, models[1+i], ed.Qualifying)
		if err != nil {
			return nil, err
		}
		reg.Probes = append(reg.Probes, probes...)
	}
	globalProbes, err := makeProbes(pl, "", reg.Global, allIdx)
	if err != nil {
		return nil, err
	}
	reg.Probes = append(reg.Probes, globalProbes...)

	if err := reg.init(); err != nil {
		return nil, err
	}
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	return reg, nil
}

// edgeSeed derives a deterministic per-model RNG seed from its name
// (FNV-style, mirroring core's per-edge experiment seeding).
func edgeSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h%100000 + 7
}

// trainServing fits one serving model on the given vector indices.
func trainServing(pl *core.Pipeline, idx []int, seed int64) (*gbt.Model, error) {
	ds, err := features.Dataset(pl.VectorsAt(idx), false)
	if err != nil {
		return nil, err
	}
	p := gbt.DefaultParams()
	p.Seed = seed
	p.Bins = pl.GBTBins
	return gbt.Train(ds, p)
}

// makeProbes records up to probesPerModel (input, prediction) pairs for
// the model, spread across its training rows.
func makeProbes(pl *core.Pipeline, edge string, m *gbt.Model, idx []int) ([]Probe, error) {
	n := probesPerModel
	if len(idx) < n {
		n = len(idx)
	}
	probes := make([]Probe, 0, n)
	for k := 0; k < n; k++ {
		v := pl.Vecs[idx[k*(len(idx)-1)/max(n-1, 1)]]
		x := v.Values(false)
		want, err := m.Predict(x)
		if err != nil {
			return nil, err
		}
		probes = append(probes, Probe{Edge: edge, X: x, Want: want})
	}
	return probes, nil
}
