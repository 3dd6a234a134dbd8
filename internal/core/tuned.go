package core

import (
	"fmt"
	"strings"

	"repro/internal/features"
	"repro/internal/ml/dataset"
	"repro/internal/ml/tune"
	"repro/internal/stats"
)

// The paper closes (§8) by asking whether "more advanced machine learning
// methods, for example multiobjective modeling with machine learning
// (AutoMOMML), can yield better models". This experiment takes a concrete
// step in that direction: per edge, replace the fixed gradient-boosting
// configuration with one chosen by k-fold cross-validated grid search, and
// compare held-out accuracy.
//
// TunedRow compares the default and tuned nonlinear model on one edge.
type TunedRow struct {
	Edge         string
	Samples      int
	DefaultMdAPE float64 // held-out MdAPE of the fixed configuration
	TunedMdAPE   float64 // held-out MdAPE of the CV-selected configuration
	BestRounds   int
	BestDepth    int
	BestLR       float64
}

// TunedModels runs the default-vs-tuned comparison on up to maxEdges study
// edges. The search uses only the training split; the reported errors come
// from the untouched test split.
func (p *Pipeline) TunedModels(edges []EdgeData, maxEdges int) ([]TunedRow, error) {
	if maxEdges > 0 && len(edges) > maxEdges {
		edges = edges[:maxEdges]
	}
	var out []TunedRow
	for _, ed := range edges {
		vecs := p.VectorsAt(ed.Qualifying)
		ds, err := features.Dataset(vecs, false)
		if err != nil {
			return nil, err
		}
		ds, _ = ds.DropLowVariance(LowVarianceMin)
		seed := modelSeed(ed.Edge.String())
		train, test := ds.Split(TrainFraction, seed)

		// Default configuration.
		_, defAPEs, err := p.trainAndTest(ds, seed)
		if err != nil {
			return nil, err
		}
		defMd, err := stats.Median(defAPEs)
		if err != nil {
			return nil, err
		}

		// CV-tuned configuration, searched on the training split only.
		// The pipeline's quantization knob applies to every candidate, so
		// the whole grid shares one binned matrix (tune's binning cache).
		grid := tune.DefaultGrid()
		grid.Bins = []int{p.GBTBins}
		model, res, err := tune.TrainBest(train, grid, 3, seed)
		if err != nil {
			return nil, err
		}
		pred, err := model.PredictAll(test)
		if err != nil {
			return nil, err
		}
		tunedMd, err := stats.MdAPE(test.Y, pred)
		if err != nil {
			return nil, err
		}

		out = append(out, TunedRow{
			Edge:         ed.Edge.String(),
			Samples:      ds.Len(),
			DefaultMdAPE: defMd,
			TunedMdAPE:   tunedMd,
			BestRounds:   res.Best.Rounds,
			BestDepth:    res.Best.MaxDepth,
			BestLR:       res.Best.LearningRate,
		})
	}
	if len(out) == 0 {
		return nil, dataset.ErrEmpty
	}
	return out, nil
}

// RenderTuned formats the default-vs-tuned comparison.
func RenderTuned(rows []TunedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %10s %10s   %s\n", "Edge", "n", "default", "tuned", "chosen (rounds/depth/lr)")
	var dSum, tSum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %6d %9.2f%% %9.2f%%   %d/%d/%.2f\n",
			r.Edge, r.Samples, r.DefaultMdAPE, r.TunedMdAPE, r.BestRounds, r.BestDepth, r.BestLR)
		dSum += r.DefaultMdAPE
		tSum += r.TunedMdAPE
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "%-28s %6s %9.2f%% %9.2f%%\n", "MEAN", "", dSum/n, tSum/n)
	return b.String()
}
