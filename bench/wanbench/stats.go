package main

import (
	"math"
	"sort"
)

// Stat is one reported metric: the median of its samples (passes, set-ups,
// phase windows or promotions) with their quartiles and count, so a reader
// can tell a shift from noise.
type Stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// statOf summarises samples. One sample gives equal quartiles.
func statOf(unit string, samples []float64) Stat {
	q1, med, q3 := quartiles(samples)
	return Stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
}

// single wraps a value that has no sub-samples (a count or a rate over the
// whole phase).
func single(unit string, v float64) Stat {
	return Stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// quartiles returns the first quartile, median and third quartile with
// the same "exclusive" interpolation as Python's statistics.quantiles(n=4),
// so spreads computed here match spreads computed from the printed values.
func quartiles(vals []float64) (q1, med, q3 float64) {
	if len(vals) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; vals need not be sorted.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder are the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile is the highest percentile on the ladder that has at
// least ten of n samples beyond it — the highest tail the sample supports.
// It returns 0 when even the median lacks ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}
