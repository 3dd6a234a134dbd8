package stream

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
	"repro/internal/stats"
)

// DriftGate holds the tolerances a candidate model must stay inside,
// relative to the last blessed model, to be promoted into the serving
// registry. The spirit is the golden-figure checks: the paper's headline
// metrics (MdAPE, R²) are compared on held-out rows from the current
// window, and any regression beyond tolerance blocks promotion.
type DriftGate struct {
	// MaxMdAPERise is the largest allowed increase of the candidate's
	// MdAPE over the blessed model's, in percentage points.
	MaxMdAPERise float64
	// MaxR2Drop is the largest allowed decrease in R².
	MaxR2Drop float64
	// MaxDivergence is the largest allowed median relative disagreement
	// between candidate and blessed predictions on the same rows. Even a
	// candidate that scores well can be rejected when it predicts a
	// different world than the model currently serving — the signature of
	// a drifted or corrupted window.
	MaxDivergence float64
}

// DefaultDriftGate returns the tolerances used by `wanperf stream`.
func DefaultDriftGate() DriftGate {
	return DriftGate{MaxMdAPERise: 5, MaxR2Drop: 0.05, MaxDivergence: 0.5}
}

// DriftMetrics is the evidence a gate decision is made on.
type DriftMetrics struct {
	CandMdAPE, BlessedMdAPE float64
	CandR2, BlessedR2       float64
	// Divergence is the median of |cand−blessed| / max(|blessed|, 1)
	// over the evaluation rows.
	Divergence float64
	// Rows is how many evaluation rows the metrics were computed on.
	Rows int
}

// Violation names, one per gated metric.
const (
	ViolationMdAPE      = "mdape-rise"
	ViolationR2         = "r2-drop"
	ViolationDivergence = "prediction-divergence"
)

// GateDecision is the outcome of judging one candidate.
type GateDecision struct {
	Metrics    DriftMetrics
	Violations []string
}

// Allow reports whether the candidate may be promoted.
func (d GateDecision) Allow() bool { return len(d.Violations) == 0 }

// EvalDrift scores a candidate against the blessed model on held-out
// evaluation rows.
func EvalDrift(blessed, cand *gbt.Model, eval *dataset.Dataset) (DriftMetrics, error) {
	var m DriftMetrics
	if eval.Len() == 0 {
		return m, fmt.Errorf("stream: no evaluation rows for drift check")
	}
	bp := make([]float64, eval.Len())
	cp := make([]float64, eval.Len())
	if err := blessed.PredictBatch(eval.X, bp); err != nil {
		return m, fmt.Errorf("stream: blessed model: %w", err)
	}
	if err := cand.PredictBatch(eval.X, cp); err != nil {
		return m, fmt.Errorf("stream: candidate model: %w", err)
	}
	div := make([]float64, eval.Len())
	for i := range div {
		div[i] = math.Abs(cp[i]-bp[i]) / math.Max(math.Abs(bp[i]), 1)
	}
	var err error
	if m.BlessedMdAPE, err = stats.MdAPE(eval.Y, bp); err != nil {
		return m, err
	}
	if m.CandMdAPE, err = stats.MdAPE(eval.Y, cp); err != nil {
		return m, err
	}
	if m.BlessedR2, err = stats.R2(eval.Y, bp); err != nil {
		return m, err
	}
	if m.CandR2, err = stats.R2(eval.Y, cp); err != nil {
		return m, err
	}
	sort.Float64s(div)
	m.Divergence = div[len(div)/2]
	m.Rows = eval.Len()
	return m, nil
}

// Judge applies the gate's tolerances to measured drift metrics. Every
// tripped metric is reported, not just the first, so a rejection log
// tells the whole story.
func (g DriftGate) Judge(m DriftMetrics) GateDecision {
	d := GateDecision{Metrics: m}
	if m.CandMdAPE-m.BlessedMdAPE > g.MaxMdAPERise {
		d.Violations = append(d.Violations,
			fmt.Sprintf("%s: candidate MdAPE %.2f%% vs blessed %.2f%% (max rise %.2fpp)",
				ViolationMdAPE, m.CandMdAPE, m.BlessedMdAPE, g.MaxMdAPERise))
	}
	if m.BlessedR2-m.CandR2 > g.MaxR2Drop {
		d.Violations = append(d.Violations,
			fmt.Sprintf("%s: candidate R² %.4f vs blessed %.4f (max drop %.4f)",
				ViolationR2, m.CandR2, m.BlessedR2, g.MaxR2Drop))
	}
	if m.Divergence > g.MaxDivergence {
		d.Violations = append(d.Violations,
			fmt.Sprintf("%s: median relative divergence %.4f (max %.4f)",
				ViolationDivergence, m.Divergence, g.MaxDivergence))
	}
	return d
}
