package gbt

import (
	"sort"
	"time"

	"repro/internal/pool"
)

// builder holds per-training-run state for tree construction.
//
// The exact greedy split search needs every node's rows ordered by each
// candidate feature. Sorting at every node — the naive approach the
// equivalence tests keep as their reference finder — costs
// O(rounds·nodes·features·n log n). Instead the builder argsorts every
// feature column once per Train with ties broken by row index (a
// deterministic total order), and tree growth maintains one sorted index
// list per feature per node by stable-partitioning the parent's lists
// against a membership bitmap: a subsequence of a sorted list is still
// sorted, so no comparison sort ever runs again.
//
// Determinism contract: the presorted search and the reference finder
// enumerate candidate splits in the identical (feature value, row index)
// sequence and accumulate gradient/hessian partial sums in that same
// sequence, so every floating-point operation happens in the same order
// and the two produce bit-identical trees. Parallel split search
// preserves this: each feature's scan is independent, and the winning
// split is reduced serially in ascending feature order with a
// strictly-greater rule, so the lowest feature index wins on equal gain
// regardless of worker count or scheduling.
type builder struct {
	x        [][]float64 // the training feature matrix, row-major
	p        Params
	n        int
	sorted   [][]int32 // per feature: all row indices sorted by (value, index)
	goLeft   []bool    // scratch: left/right membership for the node being split
	inSample []bool    // scratch: row-subsample membership for the current tree
	id32     []int32   // identity row list, shared by every full-row tree
	rootBuf  []int32   // scratch: root row/feature lists under row subsampling
	levels   []levelBufs

	// Split-search telemetry, active only when Params.Metrics is set:
	// measure gates the clock reads, splitNS accumulates the wall time
	// spent scanning candidate splits across the whole training run.
	// grow's recursion is sequential, and the timer brackets only the
	// scan block (not the recursive calls), so nothing double-counts.
	measure bool
	splitNS int64
}

// levelBufs is the partition scratch for one recursion depth. Depth-first
// growth means at most one node per depth is mid-partition at a time, and
// a node's child lists are dead before its same-depth sibling partitions,
// so two buffers per level — children lists of the node being split — are
// enough for the whole training run. Each buffer is carved into
// (numFeatures + 1) regions of n entries: region 0 holds the child's row
// list, region f+1 its sorted list for feature f.
type levelBufs struct {
	left, right []int32
}

func (b *builder) level(d int) *levelBufs {
	for len(b.levels) <= d {
		size := b.n * (len(b.sorted) + 1)
		b.levels = append(b.levels, levelBufs{
			left:  make([]int32, size),
			right: make([]int32, size),
		})
	}
	return &b.levels[d]
}

// region carves the f-th n-sized region out of a level buffer as an
// empty slice with a hard capacity, so appends can never bleed into the
// neighbouring region.
func (b *builder) region(buf []int32, f int) []int32 {
	return buf[f*b.n : f*b.n : (f+1)*b.n]
}

func newBuilder(x [][]float64, numFeatures int, p Params) *builder {
	n := len(x)
	b := &builder{
		x:        x,
		p:        p,
		n:        n,
		sorted:   make([][]int32, numFeatures),
		goLeft:   make([]bool, n),
		inSample: make([]bool, n),
		measure:  p.Metrics != nil,
	}
	nf := numFeatures
	for f := 0; f < nf; f++ {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, c int) bool {
			va, vc := x[idx[a]][f], x[idx[c]][f]
			if va != vc {
				return va < vc
			}
			return idx[a] < idx[c]
		})
		b.sorted[f] = idx
	}
	return b
}

// splitCand is the best split one feature offers within one node.
type splitCand struct {
	gain   float64
	thresh float64
	ok     bool
}

// testHookGrow, when non-nil, grows every tree in place of the presorted
// search. Nil in production; the equivalence tests install the per-node
// sorting reference finder here.
var testHookGrow func(b *builder, w *flatWriter, rows, cols []int, grad, hess []float64)

// build grows one tree on the given row subset using only the given columns.
func (b *builder) build(rows, cols []int, grad, hess []float64) tree {
	w := &flatWriter{}
	if testHookGrow != nil {
		testHookGrow(b, w, rows, cols, grad, hess)
		return tree{nodes: w.nodes}
	}

	// Per-feature sorted lists for the root. With the full row set the
	// presorted arrays are used as-is (growth never mutates its input
	// lists); a row subsample filters them against a membership bitmap,
	// which preserves the (value, index) order.
	var rowList []int32
	featLists := make([][]int32, len(b.sorted))
	if len(rows) == b.n {
		if b.id32 == nil {
			b.id32 = make([]int32, b.n)
			for i := range b.id32 {
				b.id32[i] = int32(i)
			}
		}
		rowList = b.id32
		for _, f := range cols {
			featLists[f] = b.sorted[f]
		}
	} else {
		if b.rootBuf == nil {
			b.rootBuf = make([]int32, b.n*(len(b.sorted)+1))
		}
		rowList = b.region(b.rootBuf, 0)
		for _, i := range rows {
			rowList = append(rowList, int32(i))
		}
		mark := b.inSample
		for i := range mark {
			mark[i] = false
		}
		for _, i := range rows {
			mark[i] = true
		}
		for _, f := range cols {
			lst := b.region(b.rootBuf, f+1)
			for _, i := range b.sorted[f] {
				if mark[i] {
					lst = append(lst, i)
				}
			}
			featLists[f] = lst
		}
	}
	b.grow(w, rowList, featLists, cols, grad, hess, 0)
	return tree{nodes: w.nodes}
}

// grow emits the subtree for one node and returns its index in the
// writer's pre-order node array.
func (b *builder) grow(w *flatWriter, rowList []int32, featLists [][]int32, cols []int, grad, hess []float64, depth int) int32 {
	var gSum, hSum float64
	for _, i := range rowList {
		gSum += grad[i]
		hSum += hess[i]
	}
	if depth >= b.p.MaxDepth || len(rowList) < 2 {
		return w.leaf(-gSum / (hSum + b.p.Lambda) * b.p.LearningRate)
	}

	parentScore := gSum * gSum / (hSum + b.p.Lambda)
	cands := make([]splitCand, len(cols))
	scan := func(ci int) {
		f := cols[ci]
		cands[ci] = b.scanFeature(featLists[f], f, gSum, hSum, parentScore, grad, hess)
	}
	var t0 time.Time
	if b.measure {
		t0 = time.Now()
	}
	if b.p.Workers > 1 && len(cols) > 1 {
		pool.Do(len(cols), b.p.Workers, scan)
	} else {
		for ci := range cols {
			scan(ci)
		}
	}
	if b.measure {
		b.splitNS += int64(time.Since(t0))
	}

	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	for ci, f := range cols {
		if cands[ci].ok && cands[ci].gain > bestGain {
			bestGain, bestFeat, bestThresh = cands[ci].gain, f, cands[ci].thresh
		}
	}
	if bestFeat < 0 {
		return w.leaf(-gSum / (hSum + b.p.Lambda) * b.p.LearningRate)
	}

	// Partition the node's rows and every feature's sorted list against
	// the left/right bitmap. Stable filtering preserves both the
	// ascending row order of rowList and the (value, index) order of the
	// feature lists.
	x := b.x
	goLeft := b.goLeft
	nLeft := 0
	for _, i := range rowList {
		l := x[i][bestFeat] <= bestThresh
		goLeft[i] = l
		if l {
			nLeft++
		}
	}
	if nLeft == 0 || nLeft == len(rowList) {
		return w.leaf(-gSum / (hSum + b.p.Lambda) * b.p.LearningRate)
	}
	lb := b.level(depth)
	leftRows := b.region(lb.left, 0)
	rightRows := b.region(lb.right, 0)
	for _, i := range rowList {
		if goLeft[i] {
			leftRows = append(leftRows, i)
		} else {
			rightRows = append(rightRows, i)
		}
	}
	leftLists := make([][]int32, len(featLists))
	rightLists := make([][]int32, len(featLists))
	for _, f := range cols {
		src := featLists[f]
		l := b.region(lb.left, f+1)
		r := b.region(lb.right, f+1)
		for _, i := range src {
			if goLeft[i] {
				l = append(l, i)
			} else {
				r = append(r, i)
			}
		}
		leftLists[f], rightLists[f] = l, r
	}

	idx := w.reserve()
	left := b.grow(w, leftRows, leftLists, cols, grad, hess, depth+1)
	right := b.grow(w, rightRows, rightLists, cols, grad, hess, depth+1)
	w.nodes[idx] = node{
		feature:   int32(bestFeat),
		threshold: bestThresh,
		gain:      bestGain,
		left:      left,
		right:     right,
	}
	return idx
}

// scanFeature sweeps one feature's sorted node rows and returns the best
// split it offers: the maximal gain, at the earliest cut point achieving
// it (strictly-greater updates), matching the reference finder's scan
// exactly.
func (b *builder) scanFeature(order []int32, f int, gSum, hSum, parentScore float64, grad, hess []float64) splitCand {
	x := b.x
	lambda, gamma, minChild := b.p.Lambda, b.p.Gamma, b.p.MinChildWeight
	var c splitCand
	var gl, hl float64
	for k := 0; k < len(order)-1; k++ {
		i := order[k]
		gl += grad[i]
		hl += hess[i]
		// Can't split between equal feature values.
		xi := x[i][f]
		xnext := x[order[k+1]][f]
		if xi == xnext {
			continue
		}
		gr := gSum - gl
		hr := hSum - hl
		if hl < minChild || hr < minChild {
			continue
		}
		gain := 0.5*(gl*gl/(hl+lambda)+gr*gr/(hr+lambda)-parentScore) - gamma
		if gain > c.gain {
			c.gain = gain
			c.thresh = (xi + xnext) / 2
			c.ok = true
		}
	}
	return c
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
