package gbt

import (
	"fmt"

	"repro/internal/ml/dataset"
)

// prevTreeCount returns the ensemble size of a warm-start source (0 for a
// cold start).
func prevTreeCount(prev *Model) int {
	if prev == nil {
		return 0
	}
	return len(prev.trees)
}

// TrainWarm continues boosting from a previously fitted model: the
// returned ensemble is prev's trees followed by p.Rounds new trees fitted
// to the residuals of prev's predictions on d, with prev.Base carried
// over. This is how an online refresh adapts an already-blessed model to
// a new window of data at a fraction of a cold retrain's cost — the
// inherited trees keep what was learned, the new rounds correct it.
//
// d is quantized fresh at p.Bins, so the new trees' thresholds live in the new window's bin space
// while the inherited trees keep their original raw-space thresholds —
// Predict composes the two transparently. Feature names must match prev's
// exactly. A nil or empty prev falls back to a cold Train.
func TrainWarm(d *dataset.Dataset, p Params, prev *Model) (*Model, error) {
	if prev == nil || len(prev.trees) == 0 {
		return Train(d, p)
	}
	if len(d.Names) != len(prev.Names) {
		return nil, fmt.Errorf("gbt: warm start feature count %d != previous model's %d", len(d.Names), len(prev.Names))
	}
	for i, name := range d.Names {
		if name != prev.Names[i] {
			return nil, fmt.Errorf("gbt: warm start feature %d is %q, previous model has %q", i, name, prev.Names[i])
		}
	}
	p.fillDefaults()
	bd, err := dataset.Bin(d, p.Bins)
	if err != nil {
		return nil, err
	}
	// Seed per-row predictions with the previous ensemble, evaluated in
	// raw space (the inherited trees' thresholds are raw-space values from
	// their own training run; the new window's bins know nothing of them).
	// The batch walk is bit-identical to per-row Predict.
	init := make([]float64, d.Len())
	if err := prev.PredictBatch(d.X, init); err != nil {
		return nil, err
	}
	return trainHistFrom(bd, bd.Codes, bd.Y, p, prev, init)
}
