package dataset

import (
	"fmt"
	"sort"
)

// MaxBins is the widest quantization the binned representation supports:
// bin codes are stored as uint8, so a feature can have at most 256 bins.
const MaxBins = 256

// Binned is a quantized, column-major view of a Dataset built for
// histogram-based gradient-boosted tree training. Each feature column is
// mapped once onto at most maxBins integer codes via quantile-sketch cut
// points; training then accumulates per-bin gradient histograms instead of
// scanning sorted rows.
//
// The representation is immutable after Bin returns and is safe to share:
// cross-validation folds and hyperparameter-grid points subset it by row
// index (see gbt.TrainBinned) without ever re-binning, so the quantization
// cost is paid exactly once per dataset no matter how many models are
// trained on it.
//
// The code of value v for feature f is the smallest b with v <= Cuts[f][b]
// (and len(Cuts[f]) when v exceeds every cut). Cut points are strictly
// increasing, which gives the equivalence the split search relies on:
//
//	code(v) <= b  ⇔  v <= Cuts[f][b]
//
// so a histogram split "bin <= b" is exactly the raw-value split
// "x <= Cuts[f][b]", and trees trained on codes evaluate identically on
// the raw feature vectors at prediction time.
type Binned struct {
	Names []string
	Y     []float64
	Cuts  [][]float64 // per feature: strictly increasing upper bin edges
	Codes [][]uint8   // column-major: Codes[f][i] = bin code of X[i][f]

	// Lo and Hi bracket each bin's occupied value range: Lo[f][b] and
	// Hi[f][b] are the smallest and largest raw values of feature f that
	// map to bin b. The split search uses them to place raw-space
	// thresholds at the midpoint between the values neighbouring a split —
	// the exact greedy search's threshold rule — instead of at a bin
	// edge. When a feature has at most maxBins distinct values each bin
	// holds exactly one (Lo == Hi) and the histogram thresholds reproduce
	// the exact search's bit for bit.
	Lo [][]float64
	Hi [][]float64
}

// Bin quantizes d into at most maxBins bins per feature (2..MaxBins).
// Columns with at most maxBins distinct values get one bin per distinct
// value with midpoint cuts — identical candidate thresholds to the exact
// greedy search; wider columns get quantile cut points so every bin
// holds roughly equal mass. Bin is deterministic in d.
func Bin(d *Dataset, maxBins int) (*Binned, error) {
	if d.Len() == 0 {
		return nil, ErrEmpty
	}
	if maxBins < 2 || maxBins > MaxBins {
		return nil, fmt.Errorf("dataset: maxBins %d outside [2,%d]", maxBins, MaxBins)
	}
	n, p := d.Len(), d.NumFeatures()
	b := &Binned{
		Names: append([]string(nil), d.Names...),
		Y:     append([]float64(nil), d.Y...),
		Cuts:  make([][]float64, p),
		Codes: make([][]uint8, p),
		Lo:    make([][]float64, p),
		Hi:    make([][]float64, p),
	}
	sorted := make([]float64, n)
	for f := 0; f < p; f++ {
		for i, row := range d.X {
			sorted[i] = row[f]
		}
		sort.Float64s(sorted)
		b.Cuts[f] = cutPoints(sorted, maxBins)
		cuts := b.Cuts[f]
		nb := len(cuts) + 1
		codes := make([]uint8, n)
		lo := make([]float64, nb)
		hi := make([]float64, nb)
		// Every bin holds at least one sorted value by construction, so
		// the occupied ranges can be read straight off the sorted column.
		bin := 0
		lo[0] = sorted[0]
		for _, v := range sorted {
			for bin < len(cuts) && v > cuts[bin] {
				bin++
				lo[bin] = v
			}
			hi[bin] = v
		}
		for i, row := range d.X {
			codes[i] = uint8(sort.SearchFloat64s(cuts, row[f]))
		}
		b.Codes[f] = codes
		b.Lo[f] = lo
		b.Hi[f] = hi
	}
	return b, nil
}

// cutPoints derives the strictly increasing cut points for one feature
// from its sorted values. With at most maxBins distinct values every
// adjacent-distinct midpoint becomes a cut (the exact search's candidate
// set); otherwise cuts are placed at evenly spaced ranks, each at the
// midpoint between the rank's value and the preceding distinct value, so
// equal values can never straddle a bin boundary.
func cutPoints(sorted []float64, maxBins int) []float64 {
	distinct := sorted[:0:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			distinct = append(distinct, v)
		}
	}
	if len(distinct) <= maxBins {
		cuts := make([]float64, 0, len(distinct)-1)
		for i := 0; i+1 < len(distinct); i++ {
			cuts = append(cuts, midpoint(distinct[i], distinct[i+1]))
		}
		return cuts
	}
	n := len(sorted)
	cuts := make([]float64, 0, maxBins-1)
	for k := 1; k < maxBins; k++ {
		v := sorted[k*n/maxBins]
		// The cut separates v's run from the previous distinct value.
		j := sort.SearchFloat64s(distinct, v)
		if j == 0 {
			continue
		}
		c := midpoint(distinct[j-1], v)
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// midpoint returns a value strictly separating a < b: the arithmetic mean,
// except when rounding collapses it onto b (adjacent floats), where a —
// which still satisfies a <= cut < b — is used instead.
func midpoint(a, b float64) float64 {
	m := a + (b-a)/2
	if m >= b {
		return a
	}
	return m
}

// Len returns the number of samples.
func (b *Binned) Len() int { return len(b.Y) }

// NumFeatures returns the number of feature columns.
func (b *Binned) NumFeatures() int { return len(b.Names) }

// NumBins returns the number of bins feature f uses (≥ 1; 1 means the
// column is constant and can never split).
func (b *Binned) NumBins(f int) int { return len(b.Cuts[f]) + 1 }

// Code returns the bin code raw value v maps to for feature f — the same
// mapping Bin applied to the training matrix (and the same kernel the
// row Quantizer runs, see quantize.go).
func (b *Binned) Code(f int, v float64) int {
	return codeOf(b.Cuts[f], v)
}
