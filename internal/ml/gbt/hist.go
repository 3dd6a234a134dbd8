package gbt

import (
	"fmt"
	mbits "math/bits"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ml/dataset"
	"repro/internal/obs"
)

// Histogram-binned training, the package's one trainer: the quantized
// split search real XGBoost-class systems use. Each feature column is
// mapped once onto at most Params.Bins integer codes (dataset.Bin); tree
// growth then accumulates one gradient/hessian histogram per feature per
// node and searches splits over bin boundaries instead of sorted rows.
// Three properties make it fast:
//
//   - split search per node visits only the bins the node's rows occupy:
//     each histogram carries a per-feature occupancy bitmap, and a bin
//     whose bit is clear holds exactly (+0, +0). Skipping such a bin
//     cannot move the argmax — its boundary's gain equals the previous
//     boundary's, which the strictly-greater rule never picks, or has an
//     empty left child, which MinChildWeight > 0 rejects — so the search
//     costs O(occupied bins), at most O(features · bins) (see histBuf);
//   - only the smaller child of a split ever has its histogram built by
//     scanning rows — the larger child's is the parent's minus the smaller
//     child's, bin by bin (the subtraction trick), so each level of a tree
//     scans at most half the parent's rows — and children at MaxDepth,
//     which can only be leaves, get no histogram at all;
//   - the binned matrix is immutable and row-subsettable, so CV folds and
//     hyperparameter-grid points share one quantization (see tune.Search).
//
// The path is deterministic — each fit runs on one goroutine, row
// subsampling is seeded, histograms are accumulated feature by feature in
// row order, and the winning split is reduced in ascending feature order
// with a strictly-greater rule — so the same inputs always yield the same
// model regardless of Params.Workers or GOMAXPROCS. It
// is NOT bit-identical to the exact greedy search the tests keep as their
// reference (trainReference): quantile cuts coarsen candidate thresholds
// and the accumulation order differs, so the two are related by the
// tolerance contract pinned in hist_test.go, not by equality.

// TrainBinned fits a boosted ensemble on the rows of bd listed in view
// (nil = every row) with parameters p. The binned matrix is read-only and
// may be shared concurrently by many TrainBinned calls; subsetting by row
// index never re-bins, which is what makes the shared binning cache in
// package tune multiplicative across folds and grid points.
func TrainBinned(bd *dataset.Binned, view []int, p Params) (*Model, error) {
	if bd.Len() == 0 {
		return nil, dataset.ErrEmpty
	}
	if bd.NumFeatures() == 0 {
		return nil, fmt.Errorf("gbt: no features")
	}
	codes, y := bd.Codes, bd.Y
	if view != nil {
		if len(view) == 0 {
			return nil, dataset.ErrEmpty
		}
		// Dense per-view copy: byte-sized codes make this a cheap slice
		// copy, and every downstream index is then a contiguous position.
		codes = make([][]uint8, bd.NumFeatures())
		for f := range codes {
			col := make([]uint8, len(view))
			src := bd.Codes[f]
			for k, i := range view {
				col[k] = src[i]
			}
			codes[f] = col
		}
		y = make([]float64, len(view))
		for k, i := range view {
			y[k] = bd.Y[i]
		}
	}
	return trainHistFrom(bd, codes, y, p, nil, nil)
}

// trainHistFrom is the boosting loop: tree construction is delegated to
// histBuilder and per-round prediction updates are routed through the bin
// codes (code-space and raw-space traversal agree exactly; see
// dataset.Binned). It takes an optional warm start: when prev is
// non-nil, boosting continues from prev's ensemble — the base stays
// prev's, per-row predictions start from init (prev evaluated on the
// training rows, computed by the caller in raw space), and prev's trees
// are carried into the returned model ahead of the p.Rounds new residual
// trees. See TrainWarm.
func trainHistFrom(bd *dataset.Binned, codes [][]uint8, y []float64, p Params, prev *Model, init []float64) (*Model, error) {
	n := len(y)
	p.fillDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	var base float64
	pred := make([]float64, n)
	if prev != nil {
		base = prev.Base
		copy(pred, init)
	} else {
		for _, v := range y {
			base += v
		}
		base /= float64(n)
		for i := range pred {
			pred[i] = base
		}
	}

	m := &Model{
		Base:   base,
		Names:  append([]string(nil), bd.Names...),
		params: p,
		bins:   binsOf(bd),
		cuts:   bd.Cuts,
	}
	m.buildQuantizer()
	// The squared-loss hessian is 1 for every row, so the histogram path
	// never materializes it: hessian sums are row counts (see buildHist).
	grad := make([]float64, n)

	hb := newHistBuilder(bd, codes, p)

	var allRows, allCols []int
	if p.SubsampleRows >= 1 {
		allRows = identity(n)
	}
	if p.SubsampleCols >= 1 {
		allCols = identity(bd.NumFeatures())
	}
	var rowSample, colSample subsampler

	measure := p.Metrics != nil
	treesBuilt := p.Metrics.Counter("gbt.trees_built")
	splitNS := p.Metrics.Counter("gbt.split_search_ns")
	treeMS := p.Metrics.Histogram("gbt.tree_build_ms", obs.ExpBuckets(0.25, 2, 14))

	m.trees = make([]tree, 0, prevTreeCount(prev)+p.Rounds)
	if prev != nil {
		// Deep-copy the inherited trees so the blessed model and the warm
		// candidate never share mutable state.
		for ti := range prev.trees {
			m.trees = append(m.trees, tree{nodes: append([]node(nil), prev.trees[ti].nodes...)})
		}
	}
	for round := 0; round < p.Rounds; round++ {
		for i := range grad {
			grad[i] = pred[i] - y[i] // squared loss gradient
		}
		rows := allRows
		if rows == nil {
			rows = rowSample.draw(n, p.SubsampleRows, rng)
		}
		cols := allCols
		if cols == nil {
			cols = colSample.draw(bd.NumFeatures(), p.SubsampleCols, rng)
		}
		var t0 time.Time
		if measure {
			t0 = time.Now()
		}
		// build adds each leaf's weight to the predictions of the sampled
		// rows the partition routed there.
		t := hb.build(rows, cols, grad, pred)
		if measure {
			treeMS.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
			treesBuilt.Inc()
		}
		m.trees = append(m.trees, t)
		// Out-of-sample rows need predictions too; they walk the tree in
		// code space, which needs no raw feature matrix.
		if allRows == nil {
			for i, in := range rowSample.in {
				if !in {
					pred[i] += hb.predictCodes(t.nodes, i)
				}
			}
		}
	}
	if measure {
		splitNS.Add(hb.splitNS)
	}
	m.buildFlat()
	return m, nil
}

// binsOf recovers the quantization level of a binned matrix: the widest
// per-feature bin count (what Serialize records as the model's Bins).
func binsOf(bd *dataset.Binned) int {
	max := 1
	for f := 0; f < bd.NumFeatures(); f++ {
		if nb := bd.NumBins(f); nb > max {
			max = nb
		}
	}
	return max
}

// flatWriter accumulates a tree's nodes in pre-order.
type flatWriter struct{ nodes []node }

func (w *flatWriter) leaf(weight float64) int32 {
	w.nodes = append(w.nodes, node{feature: -1, weight: weight})
	return int32(len(w.nodes) - 1)
}

// reserve appends a placeholder for an internal node so that it precedes
// its children in the array (pre-order); the caller fills it in once the
// child indices are known.
func (w *flatWriter) reserve() int32 {
	w.nodes = append(w.nodes, node{})
	return int32(len(w.nodes) - 1)
}

// histBuilder holds the per-training-run state of histogram tree growth.
// Histograms are pooled histBufs covering every feature's bins at
// per-feature offsets; at most MaxDepth are ever live (root plus one small
// child per level above the leaves).
type histBuilder struct {
	codes   [][]uint8 // column-major bin codes, dense positions 0..n-1
	cuts    [][]float64
	los     [][]float64 // per feature: each bin's smallest occupied value
	his     [][]float64 // per feature: each bin's largest occupied value
	nbins   []int
	offsets []int // per-feature bin offset into the flat histogram
	histLen int   // total bins across all features
	p       Params
	n       int

	rows     []int32    // working row array, partitioned in place per node
	scratch  []int32    // stable-partition spill for the right child
	histPool []*histBuf // free histograms, all-zero with clear bitmaps
	w        flatWriter // the tree being grown; its nodes are copied out
	splitBin []uint8    // per emitted node: the split's bin (training only)
	pred     []float64  // per-row predictions, advanced by each leaf

	measure    bool
	splitNS    int64
	histBuilds int // buildHist calls; read by tests
}

// occWords is the number of occupancy words per feature: codes are uint8,
// so a feature has at most 256 bins.
const occWords = 4

// histBuf is one node's histogram: interleaved (gradient, hessian) pairs
// for every feature's bins, plus a per-feature occupancy bitmap. The
// invariant every operation keeps is that a bin whose bit is clear holds
// exactly (+0, +0). A set bit promises nothing — the bin may have emptied
// to a zero hessian and a gradient rounding residual — so split search
// and subtraction walk set bits only and cost O(occupied bins), which for
// small nodes is far below O(features · bins).
type histBuf struct {
	v   []float64 // 2·histLen: (g, h) of bin b of feature f at 2·(offsets[f]+b)
	occ []uint64  // occWords per feature: bit b set ⇒ bin b may be non-zero
}

func newHistBuilder(bd *dataset.Binned, codes [][]uint8, p Params) *histBuilder {
	nf := bd.NumFeatures()
	hb := &histBuilder{
		codes:   codes,
		cuts:    bd.Cuts,
		los:     bd.Lo,
		his:     bd.Hi,
		nbins:   make([]int, nf),
		offsets: make([]int, nf),
		p:       p,
		n:       len(codes[0]),
		measure: p.Metrics != nil,
	}
	for f := 0; f < nf; f++ {
		hb.offsets[f] = hb.histLen
		hb.nbins[f] = bd.NumBins(f)
		hb.histLen += hb.nbins[f]
	}
	hb.rows = make([]int32, hb.n)
	hb.scratch = make([]int32, 0, hb.n)
	// A depth-d tree has at most 2^(d+1)-1 nodes; beyond depth 16 let
	// the writer grow instead of reserving an absurd bound.
	maxNodes := 1<<(min(p.MaxDepth, 16)+1) - 1
	hb.w.nodes = make([]node, 0, maxNodes)
	hb.splitBin = make([]uint8, 0, maxNodes)
	return hb
}

func (hb *histBuilder) getHist() *histBuf {
	if k := len(hb.histPool); k > 0 {
		h := hb.histPool[k-1]
		hb.histPool = hb.histPool[:k-1]
		return h
	}
	return &histBuf{
		v:   make([]float64, 2*hb.histLen),
		occ: make([]uint64, occWords*len(hb.nbins)),
	}
}

// putHist restores h to all zeros and returns it to the pool. Clearing
// the whole buffer measured no slower than visiting only its occupied
// bins on the study edges, and is the simpler of the two.
func (hb *histBuilder) putHist(h *histBuf) {
	clear(h.v)
	clear(h.occ)
	hb.histPool = append(hb.histPool, h)
}

// build grows one tree on the given row subset using only the given
// columns, adding each leaf's weight to pred for the rows it holds. rows
// come in ascending; the in-place partitions are stable, so every node's
// rows stay ascending and histogram accumulation order is a deterministic
// function of the split structure alone.
func (hb *histBuilder) build(rows, cols []int, grad, pred []float64) tree {
	hb.w.nodes = hb.w.nodes[:0]
	hb.splitBin = hb.splitBin[:0]
	hb.pred = pred
	work := hb.rows[:0]
	for _, i := range rows {
		work = append(work, int32(i))
	}
	root := hb.getHist()
	hb.buildHist(work, cols, root, grad)
	hb.grow(work, cols, root, grad, 0)
	hb.putHist(root)
	return tree{nodes: append([]node(nil), hb.w.nodes...)}
}

// leaf emits a leaf keeping splitBin aligned with the writer's node
// array, and advances the predictions of the rows it holds.
func (hb *histBuilder) leaf(rows []int32, gSum, hSum float64) int32 {
	weight := -gSum / (hSum + hb.p.Lambda) * hb.p.LearningRate
	for _, i := range rows {
		hb.pred[i] += weight
	}
	hb.splitBin = append(hb.splitBin, 0)
	return hb.w.leaf(weight)
}

// grow emits the subtree over rows (whose histogram is hist, owned by the
// caller) and returns its pre-order node index.
func (hb *histBuilder) grow(rows []int32, cols []int, hist *histBuf, grad []float64, depth int) int32 {
	var gSum float64
	for _, i := range rows {
		gSum += grad[i]
	}
	hSum := float64(len(rows)) // unit hessians: the sum is the row count
	if depth >= hb.p.MaxDepth || len(rows) < 2 {
		return hb.leaf(rows, gSum, hSum)
	}

	parentScore := gSum * gSum / (hSum + hb.p.Lambda)
	var t0 time.Time
	if hb.measure {
		t0 = time.Now()
	}
	bestGain := 0.0
	bestFeat := -1
	bestBin := 0
	for _, f := range cols {
		c := hb.scanBins(hist, f, gSum, hSum, parentScore)
		if c.ok && c.gain > bestGain {
			bestGain, bestFeat, bestBin = c.gain, f, c.bin
		}
	}
	if hb.measure {
		hb.splitNS += int64(time.Since(t0))
	}
	if bestFeat < 0 {
		return hb.leaf(rows, gSum, hSum)
	}
	thresh, splitBin := hb.threshold(hist.v, bestFeat, bestBin)

	// Stable in-place partition on the winning bin boundary: left rows
	// compact to the front, right rows spill to scratch and copy back.
	code := hb.codes[bestFeat]
	bin := uint8(bestBin)
	sc := hb.scratch[:0]
	nl := 0
	for _, i := range rows {
		if code[i] <= bin {
			rows[nl] = i
			nl++
		} else {
			sc = append(sc, i)
		}
	}
	if nl == 0 || nl == len(rows) {
		return hb.leaf(rows, gSum, hSum)
	}
	copy(rows[nl:], sc)
	left, right := rows[:nl], rows[nl:]

	// Subtraction trick: scan only the smaller child; the larger child's
	// histogram is parent − smaller, computed in place into the parent's
	// buffer (the parent histogram is dead once its children exist).
	// Children at MaxDepth can only become leaves, which read no
	// histogram, so they get none.
	var leftHist, rightHist *histBuf
	if depth+1 < hb.p.MaxDepth {
		smallHist := hb.getHist()
		defer hb.putHist(smallHist)
		small := left
		leftHist, rightHist = smallHist, hist
		if len(right) < len(left) {
			small, leftHist, rightHist = right, hist, smallHist
		}
		hb.buildHist(small, cols, smallHist, grad)
		hb.subtract(hist, smallHist, cols)
	}

	idx := hb.w.reserve()
	hb.splitBin = append(hb.splitBin, uint8(splitBin))
	leftIdx := hb.grow(left, cols, leftHist, grad, depth+1)
	rightIdx := hb.grow(right, cols, rightHist, grad, depth+1)
	hb.w.nodes[idx] = node{
		feature:   int32(bestFeat),
		threshold: thresh,
		gain:      bestGain,
		left:      leftIdx,
		right:     rightIdx,
	}
	return idx
}

// threshold converts the winning bin boundary into a raw-space threshold
// and the code-space split bin the traversals use.
//
// The split bin m is located the way the exact greedy search would
// place its cut: the node's neighbouring values are bracketed by the
// occupied ranges of bin (its last non-empty left bin — empty bins never
// win the scan) and of the first non-empty bin to its right, and m is the
// last bin whose occupied range lies at or below the midpoint of that
// gap. The stored raw threshold is then Cuts[f][m] — the global bin edge
// separating m from m+1 — which is the one value in the gap making
// raw-space and code-space traversal provably identical for EVERY input,
// not just training rows: code(v) <= m ⇔ v <= Cuts[f][m] is the binned
// representation's defining invariant, so a tree whose thresholds all sit
// on bin edges can be walked entirely in uint8 code space (see
// cforest.go, which refuses any model violating this). For dataset rows
// the snap changes nothing — Cuts[f][m] lies in the same occupied-value
// gap [Hi[f][m], Lo[f][m+1]) as the old midpoint rule, and no training or
// evaluation value of the binned matrix falls strictly inside a gap — so
// tree structure, boosting updates, and all in-data predictions are
// unchanged; only queries landing inside the gap (values the data never
// exhibited) now split at the bin edge instead of the node-local
// midpoint. When every bin holds one distinct value the gap collapses and
// the edge IS the exact search's midpoint, preserving bit-identity with
// the exact reference on narrow data.
func (hb *histBuilder) threshold(hist []float64, f, bin int) (float64, int) {
	off := 2 * hb.offsets[f]
	right := bin + 1
	for hist[off+2*right+1] == 0 { // hessians are integer sums: exact zeros
		right++
	}
	lo, hi := hb.los[f], hb.his[f]
	ideal := (hi[bin] + lo[right]) / 2
	m := sort.SearchFloat64s(lo, ideal)
	if m == len(lo) || lo[m] != ideal {
		m--
	}
	// Clamp to [bin, right-1]: float rounding at the gap's ends could
	// otherwise pin m onto a bin whose rows the partition sent the other
	// way (and right-1 keeps Cuts[f][m] in range: right <= len(cuts)).
	if m >= right {
		m = right - 1
	}
	if m < bin {
		m = bin
	}
	return hb.cuts[f][m], m
}

// buildHist accumulates the (gradient, hessian) histogram of rows for the
// given columns into h, which must be all-zero (fresh from the pool): each
// row adds its gradient and a unit hessian — hessian sums are exact row
// counts — and sets its bin's occupancy bit. It runs on the fit's one
// goroutine; training parallelism lives at the model level (one fit per
// pool task), which beats fanning a node out over features.
func (hb *histBuilder) buildHist(rows []int32, cols []int, h *histBuf, grad []float64) {
	hb.histBuilds++
	for _, f := range cols {
		hb.fillHist(rows, f, h, grad)
	}
}

func (hb *histBuilder) fillHist(rows []int32, f int, h *histBuf, grad []float64) {
	off := 2 * hb.offsets[f]
	region := h.v[off : off+2*hb.nbins[f]]
	occ := (*[occWords]uint64)(h.occ[occWords*f:])
	code := hb.codes[f]
	for _, i := range rows {
		c := code[i]
		k := 2 * int(c)
		region[k] += grad[i]
		region[k+1]++
		occ[c>>6] |= 1 << (c & 63)
	}
}

// subtract computes parent−small in place into parent for the given
// columns' regions, visiting only small's occupied bins: a bin clear in
// small is (+0, +0) there, and subtracting it would leave the parent's
// bin unchanged. Every row of small is a row of parent, so small's set
// bits are a subset of parent's. Hessian entries are row counts, exact
// integers, so the derived child's counts are exact too; a bin that
// empties to exactly (0, 0) is stored as (+0, +0) and its bit cleared,
// while one left with a zero hessian but a gradient rounding residual
// keeps its bit — the residual still feeds the split scan's running sums.
func (hb *histBuilder) subtract(parent, small *histBuf, cols []int) {
	for _, f := range cols {
		off := 2 * hb.offsets[f]
		p, s := parent.v[off:off+2*hb.nbins[f]], small.v[off:off+2*hb.nbins[f]]
		po := (*[occWords]uint64)(parent.occ[occWords*f:])
		so := (*[occWords]uint64)(small.occ[occWords*f:])
		for w, bits := range so {
			for ; bits != 0; bits &= bits - 1 {
				b := 64*w + mbits.TrailingZeros64(bits)
				g, hs := p[2*b]-s[2*b], p[2*b+1]-s[2*b+1]
				if g == 0 && hs == 0 {
					g, hs = 0, 0 // +0: the clear-bit invariant
					po[w] &^= 1 << (b & 63)
				}
				p[2*b], p[2*b+1] = g, hs
			}
		}
	}
}

// histSplit is the best split one feature's histogram offers.
type histSplit struct {
	gain float64
	bin  int
	ok   bool
}

// scanBins sweeps one feature's occupied bins left to right, accumulating
// the left-child sums, and returns the maximal-gain boundary (earliest bin
// on equal gain, strictly-greater updates — mirroring the exact search's
// rule). Skipping a clear bin cannot change the result: it would add
// exact zeros to gl and hl, so its boundary has either the previous
// boundary's gain, which a strictly-greater update never picks, or — when
// no occupied bin precedes it — hl = 0, which MinChildWeight > 0 rejects.
func (hb *histBuilder) scanBins(h *histBuf, f int, gSum, hSum, parentScore float64) histSplit {
	lambda, gamma, minChild := hb.p.Lambda, hb.p.Gamma, hb.p.MinChildWeight
	off := 2 * hb.offsets[f]
	v := h.v[off : off+2*hb.nbins[f]]
	last := hb.nbins[f] - 1 // the last bin has no boundary to its right
	var c histSplit
	var gl, hl float64
	for w, bits := range (*[occWords]uint64)(h.occ[occWords*f:]) {
		for ; bits != 0; bits &= bits - 1 {
			b := 64*w + mbits.TrailingZeros64(bits)
			if b >= last {
				return c
			}
			gl += v[2*b]
			hl += v[2*b+1]
			gr := gSum - gl
			hr := hSum - hl
			if hr < minChild {
				return c // hl only grows, so hr only shrinks
			}
			if hl < minChild {
				continue
			}
			gain := 0.5*(gl*gl/(hl+lambda)+gr*gr/(hr+lambda)-parentScore) - gamma
			if gain > c.gain {
				c.gain = gain
				c.bin = b
				c.ok = true
			}
		}
	}
	return c
}

// predictCodes evaluates one tree on row position pos entirely in code
// space, using the per-node split bins recorded during growth. Because
// code(v) <= bin ⇔ v <= threshold, this agrees exactly with raw-space
// traversal for every training row.
func (hb *histBuilder) predictCodes(nodes []node, pos int) float64 {
	i := int32(0)
	for {
		nd := &nodes[i]
		if nd.feature < 0 {
			return nd.weight
		}
		if hb.codes[nd.feature][pos] <= hb.splitBin[i] {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}
