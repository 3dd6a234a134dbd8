// Package core wires the substrates together into the paper's end-to-end
// pipeline: simulate a transfer fabric (standing in for the production
// Globus deployment), collect its log, engineer the §4 features, select the
// heavily used edges, train and evaluate the §5 models, and regenerate
// every table and figure of the evaluation.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/obs"
	"repro/internal/simulate"
)

// Pipeline bundles a simulated log with its engineered features.
type Pipeline struct {
	Cfg  simulate.Config
	Gen  *simulate.Generated
	Log  *logs.Log
	Vecs []features.Vector // aligned with Log.Records

	// Obs is the observability sink the pipeline's experiments feed
	// (phase spans, per-edge fit timings, model-training telemetry).
	// nil — the default from Run/RunContext — disables it entirely.
	Obs *obs.Obs

	// GBTBins is the histogram quantization level (gbt.Params.Bins,
	// 2..256) of every boosted-tree fit the pipeline's experiments run
	// (EvaluateEdges, GlobalModel, Ablate, Fig13, TunedModels). 0 — the
	// default — means 256, what the wanperf CLI trains with.
	GBTBins int
}

// DefaultThreshold is the load threshold T of §4.3.2: only transfers with
// rate ≥ T·Rmax(edge) enter the models, under the hypothesis that they
// suffered little unknown (non-Globus) load.
const DefaultThreshold = 0.5

// MinEdgeTransfers is the paper's minimum number of qualifying transfers
// for an edge to receive its own model (§5.1).
const MinEdgeTransfers = 300

// NumEdges is the number of heavily used edges the paper studies.
const NumEdges = 30

// Run generates the world and workload, simulates it, and engineers the
// features. It is deterministic in cfg.Seed.
func Run(cfg simulate.Config) (*Pipeline, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: a long simulation stops promptly with
// the context's error when ctx is cancelled or times out.
func RunContext(ctx context.Context, cfg simulate.Config) (*Pipeline, error) {
	return RunObs(ctx, cfg, nil)
}

// RunObs is RunContext with observability attached: the simulate and
// feature-engineering phases run under trace spans, the engine feeds
// its "sim.*" metrics, and the returned pipeline carries o so that the
// experiment drivers (EvaluateEdges, GlobalModel, Ablate, ...) report
// per-phase spans and model-fit timings. A nil o is fully disabled and
// makes RunObs identical to RunContext.
func RunObs(ctx context.Context, cfg simulate.Config, o *obs.Obs) (*Pipeline, error) {
	sp := o.Child("simulate")
	l, _, g, err := simulate.GenerateLogChaosObs(ctx, cfg, nil, o.Reg())
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Annotate("records", strconv.Itoa(len(l.Records)))
	sp.End()

	sp = o.Child("features")
	vecs := features.Engineer(l)
	sp.End()
	o.Counter("pipeline.records").Add(int64(len(l.Records)))
	return &Pipeline{Cfg: cfg, Gen: g, Log: l, Vecs: vecs, Obs: o}, nil
}

// FromLog builds a pipeline from an existing log (e.g. read from CSV).
func FromLog(l *logs.Log) *Pipeline {
	return &Pipeline{Log: l, Vecs: features.Engineer(l)}
}

// EdgeData is one selected edge with its qualifying transfers.
type EdgeData struct {
	Edge       logs.EdgeKey
	Rmax       float64 // highest rate observed on the edge, MB/s
	All        []int   // vec indices of every transfer on the edge
	Qualifying []int   // vec indices with rate ≥ threshold·Rmax
}

// SelectEdges returns up to maxEdges edges that have at least minQualifying
// transfers with rate ≥ threshold·Rmax, ordered by descending qualifying
// count (ties broken lexicographically). Passing maxEdges ≤ 0 returns all
// qualifying edges.
func (p *Pipeline) SelectEdges(minQualifying int, threshold float64, maxEdges int) []EdgeData {
	type agg struct {
		all  []int
		rmax float64
	}
	byEdge := map[logs.EdgeKey]*agg{}
	for i := range p.Vecs {
		r := &p.Log.Records[p.Vecs[i].RecordIdx]
		e := r.Edge()
		a := byEdge[e]
		if a == nil {
			a = &agg{}
			byEdge[e] = a
		}
		a.all = append(a.all, i)
		if rate := r.Rate(); rate > a.rmax {
			a.rmax = rate
		}
	}
	var out []EdgeData
	for e, a := range byEdge {
		ed := EdgeData{Edge: e, Rmax: a.rmax, All: a.all}
		for _, i := range a.all {
			if p.Vecs[i].Rate >= threshold*a.rmax {
				ed.Qualifying = append(ed.Qualifying, i)
			}
		}
		if len(ed.Qualifying) >= minQualifying {
			out = append(out, ed)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Qualifying) != len(out[j].Qualifying) {
			return len(out[i].Qualifying) > len(out[j].Qualifying)
		}
		return out[i].Edge.String() < out[j].Edge.String()
	})
	if maxEdges > 0 && len(out) > maxEdges {
		out = out[:maxEdges]
	}
	return out
}

// StudyEdges selects the paper's working set: the NumEdges busiest edges
// with at least MinEdgeTransfers transfers above DefaultThreshold·Rmax.
func (p *Pipeline) StudyEdges() []EdgeData {
	return p.SelectEdges(MinEdgeTransfers, DefaultThreshold, NumEdges)
}

// EdgeByKey finds the selected edge with the given key.
func EdgeByKey(edges []EdgeData, key logs.EdgeKey) (EdgeData, error) {
	for _, e := range edges {
		if e.Edge == key {
			return e, nil
		}
	}
	return EdgeData{}, fmt.Errorf("core: edge %s not in selection", key)
}

// VectorsAt returns copies of the vectors at the given indices.
func (p *Pipeline) VectorsAt(indices []int) []features.Vector {
	out := make([]features.Vector, len(indices))
	for k, i := range indices {
		out[k] = p.Vecs[i]
	}
	return out
}
