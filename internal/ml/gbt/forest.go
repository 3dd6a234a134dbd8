package gbt

import (
	"fmt"
	"math"

	"repro/internal/ml/dataset"
	"repro/internal/pool"
)

// bfsLayout is the relayout both batch forests share: one tree's
// pre-order nodes renumbered in BFS order, with each split's two children
// allocated as an ADJACENT pair (right == left+1), so a walker stores
// only the left index and selects the child arithmetically — left + goes
// right — with no branch to mispredict. The struct doubles as scratch
// reused across the trees of one build.
type bfsLayout struct {
	order  []int32 // order[new] = old pre-order index
	newIdx []int32 // newIdx[old] = new index
	depths []int32 // depths[new], parallel to order
	depth  int32   // the tree's leaf depth bound: levels a walker runs
}

// relayout computes the BFS order of nodes. The queue pass also assigns
// depths; the running max bounds the walk.
func (l *bfsLayout) relayout(nodes []node) {
	l.order = append(l.order[:0], 0)
	l.depths = append(l.depths[:0], 0)
	// Every entry newIdx is read at is written below first, so the
	// scratch is resized, not cleared.
	if cap(l.newIdx) < len(nodes) {
		l.newIdx = make([]int32, len(nodes))
	}
	l.newIdx = l.newIdx[:len(nodes)]
	l.depth = 0
	for qi := 0; qi < len(l.order); qi++ {
		n := nodes[l.order[qi]]
		if n.feature < 0 {
			continue
		}
		d := l.depths[qi] + 1
		l.depth = max(l.depth, d)
		l.newIdx[n.left] = int32(len(l.order))
		l.newIdx[n.right] = int32(len(l.order) + 1)
		l.depths = append(l.depths, d, d)
		l.order = append(l.order, n.left, n.right)
	}
}

// fnode is one float-forest node: 16 bytes, so four share a cache line.
// A split goes left when x[feature] <= thresh, to left+1 otherwise.
// A leaf is a fixed point of that step: its threshold is NaN, so the
// comparison is never true, and left is its own index minus one, so the
// cursor parks on the leaf while the blocked walker runs out the tree's
// depth. A NaN feature value fails the comparison too and goes right,
// exactly as per-row Predict sends it.
type fnode struct {
	thresh  float64
	feature int32
	left    int32
}

// forest is the ensemble laid out for blocked batch inference, the float
// twin of cforest: every tree BFS-relaid (bfsLayout) into one fnode
// slice, leaf weights in a parallel array read once per tree after the
// walk, so nodes plus weights cost 24 bytes per node.
type forest struct {
	nodes  []fnode
	weight []float64
	roots  []int32
	depth  []int32 // per-tree leaf depth bound
	nf     int
}

// buildFlat constructs the model's batch forests from its trees. Called
// once at the end of training and loading; prediction paths treat them
// as immutable, so a built model is safe for concurrent PredictAll calls.
func (m *Model) buildFlat() {
	m.flat = buildForest(m)
	m.code = buildCodeForest(m)
}

func buildForest(m *Model) *forest {
	var total int
	for ti := range m.trees {
		total += len(m.trees[ti].nodes)
	}
	f := &forest{
		nodes:  make([]fnode, 0, total),
		weight: make([]float64, 0, total),
		roots:  make([]int32, 0, len(m.trees)),
		depth:  make([]int32, len(m.trees)),
		nf:     len(m.Names),
	}
	leaf := math.NaN()
	var lay bfsLayout
	for ti := range m.trees {
		nodes := m.trees[ti].nodes
		base := int32(len(f.nodes))
		f.roots = append(f.roots, base)
		lay.relayout(nodes)
		for newI, old := range lay.order {
			n := nodes[old]
			if n.feature < 0 {
				f.nodes = append(f.nodes, fnode{thresh: leaf, left: base + int32(newI) - 1})
				f.weight = append(f.weight, n.weight)
				continue
			}
			f.nodes = append(f.nodes, fnode{thresh: n.threshold, feature: n.feature, left: base + lay.newIdx[n.left]})
			f.weight = append(f.weight, 0)
		}
		f.depth[ti] = lay.depth
	}
	return f
}

// right is the walker's child offset: 1 unless x <= t. Written as a
// comparison the compiler turns into a flag set, not a branch.
func right(x, t float64) int32 {
	if x <= t {
		return 0
	}
	return 1
}

// walkBlock routes the n rows of the row-major block xb (row r's values
// at xb[r*nf : (r+1)*nf]) through every tree and accumulates leaf
// weights into acc, tree-major: all cursors descend one level together,
// so a block keeps up to codeBlock independent node loads in flight
// where a one-row walk serializes on each. Per row the weights still sum
// in ensemble order, the floating-point sequence of per-row Predict, so
// predictions are bit-identical to it.
func (f *forest) walkBlock(xb []float64, n int, acc []float64) {
	nodes, weight := f.nodes, f.weight
	nf := f.nf
	xb = xb[:n*nf]
	acc = acc[:n]
	var cur [codeBlock]int32
	for ti, root := range f.roots {
		d := f.depth[ti]
		if d == 0 { // single-leaf tree
			w := weight[root]
			for r := range acc {
				acc[r] += w
			}
			continue
		}
		cs := cur[:n]
		// Level one: every cursor starts at the root, read once.
		r0 := nodes[root]
		f0, t0, l0 := int(r0.feature), r0.thresh, r0.left
		rb := 0
		for r := range cs {
			cs[r] = l0 + right(xb[rb+f0], t0)
			rb += nf
		}
		if d == 1 {
			for r, c := range cs {
				acc[r] += weight[c]
			}
			continue
		}
		for lv := d - 2; lv > 0; lv-- {
			rb = 0
			for r := range cs {
				nd := &nodes[cs[r]]
				cs[r] = nd.left + right(xb[rb+int(nd.feature)], nd.thresh)
				rb += nf
			}
		}
		// The last level adds the leaf weight straight off the child it
		// computes instead of storing the cursor for a separate pass.
		rb = 0
		for r := range cs {
			nd := &nodes[cs[r]]
			acc[r] += weight[nd.left+right(xb[rb+int(nd.feature)], nd.thresh)]
			rb += nf
		}
	}
}

// floatStackFeatures bounds the per-call stack block the row gather
// fills (codeBlock rows × 32 float64 = 16 KB); wider models take one
// heap block per predict call.
const floatStackFeatures = 32

// predictRows fills out[k] with base plus the ensemble output for each
// row of xs, gathering up to codeBlock rows at a time into a contiguous
// row-major block so the walk reads every value at one load. A single
// row is walked in place.
func (f *forest) predictRows(xs [][]float64, out []float64, base float64) {
	nf := f.nf
	if len(xs) == 1 {
		acc := [1]float64{base}
		f.walkBlock(xs[0], 1, acc[:])
		out[0] = acc[0]
		return
	}
	var stack [codeBlock * floatStackFeatures]float64
	xb := stack[:]
	if nf > floatStackFeatures {
		xb = make([]float64, codeBlock*nf)
	}
	var acc [codeBlock]float64
	for lo := 0; lo < len(xs); lo += codeBlock {
		hi := min(lo+codeBlock, len(xs))
		n := hi - lo
		for r := 0; r < n; r++ {
			copy(xb[r*nf:(r+1)*nf], xs[lo+r])
			acc[r] = base
		}
		f.walkBlock(xb, n, acc[:n])
		copy(out[lo:hi], acc[:n])
	}
}

// predictBatch is the row granularity of the parallel fan-out: batches
// are disjoint output ranges, so workers never share a cache line of out
// for long, and per-batch scheduling overhead stays negligible.
const predictBatch = 256

// PredictAll returns predictions for every row of d. Rows are independent,
// so batches run on the worker pool when the job is large enough to pay
// for the fan-out; results are written into per-batch slots and are
// identical to the serial traversal's.
func (m *Model) PredictAll(d *dataset.Dataset) ([]float64, error) {
	if len(m.trees) == 0 {
		return nil, ErrNotTrained
	}
	if d.NumFeatures() != len(m.Names) {
		return nil, fmt.Errorf("gbt: dataset has %d features, want %d", d.NumFeatures(), len(m.Names))
	}
	out := make([]float64, d.Len())
	if err := m.PredictBatch(d.X, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatch fills out[i] with the prediction for row xs[i], writing
// into caller-owned storage — the zero-extra-allocation batch entry point
// the serve daemon's batcher coalesces requests into. Every row must have
// exactly len(Names) values and out must have len(xs) slots. Large
// batches fan out on the worker pool exactly like PredictAll; results are
// identical to per-row Predict.
func (m *Model) PredictBatch(xs [][]float64, out []float64) error {
	if len(m.trees) == 0 {
		return ErrNotTrained
	}
	if len(out) != len(xs) {
		return fmt.Errorf("gbt: out has %d slots for %d rows", len(out), len(xs))
	}
	for i, x := range xs {
		if len(x) != len(m.Names) {
			return fmt.Errorf("gbt: row %d has %d features, want %d", i, len(x), len(m.Names))
		}
	}
	if m.flat == nil {
		m.buildFlat()
	}
	n := len(xs)
	workers := m.params.Workers
	if workers <= 0 {
		workers = pool.Workers()
	}
	batches := (n + predictBatch - 1) / predictBatch
	if workers > 1 && batches > 1 {
		pool.Do(batches, workers, func(bi int) {
			lo := bi * predictBatch
			hi := min(lo+predictBatch, n)
			m.flat.predictRows(xs[lo:hi], out[lo:hi], m.Base)
		})
	} else {
		m.flat.predictRows(xs, out, m.Base)
	}
	return nil
}
