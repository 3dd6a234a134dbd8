package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simulate"
)

// gbtBins is the histogram bin count the CLI trains with by default.
const gbtBins = 256

// timed runs fn under a span named name (a child of parent; nil parent
// opens a root on tr, and a nil tracer records nothing) and returns its
// wall time in seconds.
func timed(tr *obs.Tracer, parent *obs.Span, name string, fn func() error) (float64, error) {
	sp := parent.Child(name)
	if parent == nil {
		sp = tr.Start(name)
	}
	t := time.Now()
	err := fn()
	d := time.Since(t).Seconds()
	sp.End()
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// simulateLog generates cfg's world and transfer plan and simulates it
// with the run's seed, the way core.Run does, one layer call at a time so
// each gets its own span and time. ready, if set, is called once the
// inputs exist (after simulate.Generate), which is where set-up ends for
// the offline workloads. The returned pipeline has no feature vectors yet.
//
// The world and plan come from cfg's own seed (42 for the stock configs),
// so every run does the same amount of work; the run's seed keys the
// engine's random streams — background load, rate jitter, faults and
// retries — so every record, and every model and request derived from the
// records, differs between seeds. With seed 42 the pipeline is exactly
// what `wanperf -seed 42` builds.
func simulateLog(tr *obs.Tracer, parent *obs.Span, cfg simulate.Config, seed int64, ready func()) (*core.Pipeline, map[string]Stat, error) {
	var g *simulate.Generated
	genS, err := timed(tr, parent, "simulate.generate", func() (err error) {
		g, err = simulate.Generate(cfg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if ready != nil {
		ready()
	}
	pl := &core.Pipeline{Cfg: cfg, Gen: g, GBTBins: gbtBins}
	runS, err := timed(tr, parent, "simulate.run", func() (err error) {
		eng := simulate.NewEngine(g.World, seed+1)
		eng.SetShards(cfg.Shards)
		eng.Submit(g.Specs...)
		pl.Log, err = eng.Run()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return pl, map[string]Stat{
		"simulate.generate_s":      single("s", genS),
		"simulate.run_s":           single("s", runS),
		"simulate.transfers_per_s": single("transfers/s", float64(len(pl.Log.Records))/runS),
	}, nil
}

// simulatePipeline is simulateLog followed by features.Engineer: the
// pipeline core.Run builds.
func simulatePipeline(tr *obs.Tracer, parent *obs.Span, cfg simulate.Config, seed int64, ready func()) (*core.Pipeline, map[string]Stat, error) {
	pl, layers, err := simulateLog(tr, parent, cfg, seed, ready)
	if err != nil {
		return nil, nil, err
	}
	engS, _ := timed(tr, parent, "features.engineer", func() error {
		pl.Vecs = features.Engineer(pl.Log)
		return nil
	})
	layers["features.engineer_s"] = single("s", engS)
	return pl, layers, nil
}

// poolRows is how many distinct prediction rows a serving workload
// cycles through; one in unknownEvery of them is on an edge without its
// own model (answered by the global fallback). batchRows is the rows per
// /predict/batch request.
const (
	poolRows     = 4096
	unknownEvery = 10
	batchRows    = 256
)

// predRow is one prediction input: its edge, its feature values in
// registry column order, and its singleton /predict body.
type predRow struct {
	src, dst string
	x        []float64
	body     []byte
}

// makeRows draws a serving request pool from the pipeline's transfers:
// transfers on edges that have their own model in the registry (the
// "SRC->DST" keys in modelled), plus transfers on edges that do not.
func makeRows(pl *core.Pipeline, modelled map[string]bool, seed int64) ([]predRow, error) {
	var known, unknown []int
	for i := range pl.Vecs {
		if modelled[pl.Log.Records[pl.Vecs[i].RecordIdx].Edge().String()] {
			known = append(known, i)
		} else {
			unknown = append(unknown, i)
		}
	}
	if len(known) == 0 || len(unknown) == 0 {
		return nil, fmt.Errorf("pipeline has %d transfers on modelled edges and %d on others; need both", len(known), len(unknown))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(known), func(i, j int) { known[i], known[j] = known[j], known[i] })
	rng.Shuffle(len(unknown), func(i, j int) { unknown[i], unknown[j] = unknown[j], unknown[i] })
	nUnknown := poolRows / unknownEvery
	idx := make([]int, 0, poolRows)
	for i := 0; i < poolRows-nUnknown; i++ {
		idx = append(idx, known[i%len(known)])
	}
	for i := 0; i < nUnknown; i++ {
		idx = append(idx, unknown[i%len(unknown)])
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })

	rows := make([]predRow, len(idx))
	for k, i := range idx {
		v := &pl.Vecs[i]
		rec := &pl.Log.Records[v.RecordIdx]
		x := v.Values(false)
		feats := make(map[string]float64, len(features.Names))
		for j, name := range features.Names {
			feats[name] = x[j]
		}
		body, err := json.Marshal(&serve.PredictRequest{Src: rec.Src, Dst: rec.Dst, Features: feats})
		if err != nil {
			return nil, err
		}
		rows[k] = predRow{src: rec.Src, dst: rec.Dst, x: x, body: body}
	}
	return rows, nil
}

// edgeSet is the "SRC->DST" keys of edges.
func edgeSet(edges []core.EdgeData) map[string]bool {
	set := make(map[string]bool, len(edges))
	for _, ed := range edges {
		set[ed.Edge.String()] = true
	}
	return set
}

// singleBodies and batchBodies are the request bodies of the two serving
// workloads: one row per /predict body, or batchRows rows per NDJSON
// /predict/batch body.
func singleBodies(rows []predRow) [][]byte {
	out := make([][]byte, len(rows))
	for i := range rows {
		out[i] = rows[i].body
	}
	return out
}

func batchBodies(rows []predRow) [][]byte {
	var out [][]byte
	for i := 0; i+batchRows <= len(rows); i += batchRows {
		var b bytes.Buffer
		for _, r := range rows[i : i+batchRows] {
			b.Write(r.body)
			b.WriteByte('\n')
		}
		out = append(out, b.Bytes())
	}
	return out
}
