package gbt

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ml/dataset"
	"repro/internal/pool"
)

// ErrNoCodeSpace is returned by the code-space prediction entry points
// when the model has no code forest: it was loaded from a file that
// records no cut points (written before training was always binned), or
// a split threshold does not sit exactly on a stored bin edge so the
// builder refused the rewrite (see buildCodeForest). Callers fall back to
// the float path — the code path never silently diverges.
var ErrNoCodeSpace = errors.New("gbt: model has no code-space forest")

// A code-space tree node is one uint64 — feature in bits 0..15, split
// bin code in bits 16..23, absolute left-child index in bits 32..63 —
// half the float forest's 16-byte fnode, so twice as much of the forest
// fits in cache and each walk step issues ONE node load (the packed
// word); with the cursor and code-byte loads that is 3 load-port uops
// per step, which is what the level loop's throughput is bound by.
// Split rule: go left when code[feature] <= code. Nodes are laid out by
// bfsLayout (BFS order, each split's two children adjacent, right child
// at left+1), so only the left index is stored and the walker selects
// the child arithmetically — cs = left + (code > nd.code) — with no
// branch to mispredict. Leaves are self-loops (left == own index) with
// feature 0 and code 255: bin codes are at most 255, so the comparison
// is never "greater" and the cursor parks on the leaf while the blocked
// walker runs out the tree's depth without a leaf branch.
func packCnode(feature int16, code uint8, left int32) uint64 {
	return uint64(uint16(feature)) | uint64(code)<<16 | uint64(uint32(left))<<32
}

// cforest is the quantized ensemble: every tree BFS-relaid and
// concatenated into one packed-node slice, with leaf weights in a
// parallel array touched only after the walk (same split-the-working-set
// rationale as forest). depth[t] is tree t's leaf depth bound — the
// number of unconditional levels the blocked walker runs.
type cforest struct {
	nodes  []uint64 // packed nodes, see packCnode
	weight []float64
	roots  []int32
	depth  []int32
	nf     int
}

// buildCodeForest converts the model's trees into code space, or returns
// nil when it cannot do so with bit-identical semantics. The rewrite is
// sound if and only if every split threshold t equals a stored bin edge
// Cuts[f][m] exactly: then the binned representation's defining invariant
// code(v) <= m ⇔ v <= Cuts[f][m] = t makes the uint8 comparison route
// every possible input to the same leaf as the float comparison.
// Histogram training guarantees this (hist.go threshold snaps to the
// winning bin edge), but the builder trusts nothing: each threshold is
// searched for in Cuts and ANY mismatch — e.g. a stream-warm-started
// model carrying trees whose thresholds came from a previous window's
// cuts, or a hand-edited registry — refuses the whole forest, leaving
// the float path as the only (and still correct) traversal.
func buildCodeForest(m *Model) *cforest {
	if m.bins == 0 || len(m.cuts) != len(m.Names) || len(m.trees) == 0 {
		return nil
	}
	var total int
	for ti := range m.trees {
		total += len(m.trees[ti].nodes)
	}
	if total > 1<<31-1 || len(m.Names) > 1<<15-1 {
		return nil
	}
	c := &cforest{
		nodes:  make([]uint64, 0, total),
		weight: make([]float64, 0, total),
		roots:  make([]int32, 0, len(m.trees)),
		depth:  make([]int32, len(m.trees)),
		nf:     len(m.Names),
	}
	var lay bfsLayout
	for ti := range m.trees {
		nodes := m.trees[ti].nodes
		base := int32(len(c.nodes))
		c.roots = append(c.roots, base)
		lay.relayout(nodes)
		for newI, old := range lay.order {
			n := nodes[old]
			if n.feature < 0 {
				c.nodes = append(c.nodes, packCnode(0, 255, base+int32(newI)))
				c.weight = append(c.weight, n.weight)
				continue
			}
			cuts := m.cuts[n.feature]
			b := sort.SearchFloat64s(cuts, n.threshold)
			if b == len(cuts) || cuts[b] != n.threshold || b > 254 {
				return nil // threshold off the bin-edge grid: refuse
			}
			// newIdx[n.right] == newIdx[n.left]+1 by the pair allocation.
			c.nodes = append(c.nodes, packCnode(int16(n.feature), uint8(b), base+lay.newIdx[n.left]))
			c.weight = append(c.weight, 0)
		}
		c.depth[ti] = lay.depth
	}
	return c
}

// codeBlock is the blocked walker's row-block width: 64 node-cursors
// advanced per tree level keeps ~64 independent memory accesses in
// flight, hiding the branch misses and cache latency a one-row-at-a-time
// walk serializes on.
const codeBlock = 64

// stackFeatures bounds the per-call stack buffer for the row-major code
// block; wider models fall back to one heap allocation per predict call.
const stackFeatures = 128

// walkBlock routes the n rows of the row-major code block cb (row r's
// codes at cb[r*nf : (r+1)*nf]) through every tree and accumulates leaf
// weights into acc, tree-major: all cursors descend one tree level
// together, and per row the weights still sum in ensemble order — the
// identical floating-point sequence as the float path, so predictions
// are bit-identical, not just close.
func (c *cforest) walkBlock(cb []uint8, n int, acc []float64) {
	nodes, weight := c.nodes, c.weight
	nf := c.nf
	cb = cb[:n*nf] // hoist the block bound for the indexing below
	acc = acc[:n]  // ties len(acc) to n so acc[r] checks fold into range cs
	var cur [codeBlock]int32
	// The child select is branchless throughout: split code minus row
	// code underflows exactly when the row code is greater, so the
	// shifted-down sign bit is the go-right offset (children are
	// adjacent, right == left+1). A 50/50 data-dependent branch here
	// would mispredict every other row; this is a handful of ALU ops.
	// Three passes are peeled away per tree: levels one and two run as
	// ONE pass (every cursor starts at the root, whose word is read
	// once and hoisted, and the level-two node is one of just two words
	// — kept in registers and picked by conditional move instead of
	// loaded), and the final level accumulates the leaf weight directly
	// off the computed child instead of storing cursors for a separate
	// gather pass. A depth-2 tree is a single fused pass; depth d costs
	// d-1 passes over the block.
	for ti, root := range c.roots {
		cs := cur[:n]
		d := c.depth[ti]
		w0 := nodes[root]
		f0 := int(uint16(w0))
		c0 := w0 >> 16 & 0xff
		l0 := int32(uint32(w0 >> 32))
		if d == 0 { // single-leaf tree
			wt := weight[root]
			for r := range cs {
				acc[r] += wt
			}
			continue
		}
		if d == 1 { // root split, both children leaves
			rb := 0
			for r := range cs {
				gt := (c0 - uint64(cb[rb+f0])) >> 63
				acc[r] += weight[l0+int32(gt)]
				rb += nf
			}
			continue
		}
		wl, wr := nodes[l0], nodes[l0+1]
		if d == 2 {
			rb := 0
			for r := range cs {
				gt := (c0 - uint64(cb[rb+f0])) >> 63
				w := wr
				if gt == 0 {
					w = wl
				}
				gt2 := (w>>16&0xff - uint64(cb[rb+int(uint16(w))])) >> 63
				acc[r] += weight[int32(uint32(w>>32))+int32(gt2)]
				rb += nf
			}
			continue
		}
		rb := 0
		for r := range cs {
			gt := (c0 - uint64(cb[rb+f0])) >> 63
			w := wr
			if gt == 0 {
				w = wl
			}
			gt2 := (w>>16&0xff - uint64(cb[rb+int(uint16(w))])) >> 63
			cs[r] = int32(uint32(w>>32)) + int32(gt2)
			rb += nf
		}
		for lv := d - 3; lv > 0; lv-- {
			rb = 0
			for r := range cs {
				w := nodes[cs[r]]
				gt := (w>>16&0xff - uint64(cb[rb+int(uint16(w))])) >> 63
				cs[r] = int32(uint32(w>>32)) + int32(gt)
				rb += nf
			}
		}
		rb = 0
		for r := range cs {
			w := nodes[cs[r]]
			gt := (w>>16&0xff - uint64(cb[rb+int(uint16(w))])) >> 63
			acc[r] += weight[int32(uint32(w>>32))+int32(gt)]
			rb += nf
		}
	}
}

// predictRows fills out[k] with base plus the ensemble output for each
// pre-quantized row, gathering rows into a contiguous row-major block so
// the walk streams codes from at most nf*64 bytes.
func (c *cforest) predictRows(rows [][]uint8, out []float64, base float64) {
	nf := c.nf
	var stack [codeBlock * stackFeatures]uint8
	cb := stack[:]
	if nf > stackFeatures {
		cb = make([]uint8, codeBlock*nf)
	}
	var acc [codeBlock]float64
	for lo := 0; lo < len(rows); lo += codeBlock {
		hi := min(lo+codeBlock, len(rows))
		n := hi - lo
		for r := 0; r < n; r++ {
			copy(cb[r*nf:(r+1)*nf], rows[lo+r])
			acc[r] = base
		}
		c.walkBlock(cb, n, acc[:n])
		copy(out[lo:hi], acc[:n])
	}
}

// predictDense is predictRows for rows already packed into one
// contiguous row-major slab (row r's codes at cb[r*nf : (r+1)*nf]): the
// walker reads the caller's slab in place, so the per-row gather copy —
// and the per-row slice-header traffic of [][]uint8 — disappears from
// the hot path. This is the serve front door's steady-state entry: the
// admission codec quantizes straight into a job's code slab and the
// batcher hands the slab here untouched.
func (c *cforest) predictDense(cb []uint8, out []float64, base float64) {
	nf := c.nf
	var acc [codeBlock]float64
	for lo := 0; lo < len(out); lo += codeBlock {
		hi := min(lo+codeBlock, len(out))
		n := hi - lo
		for r := 0; r < n; r++ {
			acc[r] = base
		}
		c.walkBlock(cb[lo*nf:hi*nf], n, acc[:n])
		copy(out[lo:hi], acc[:n])
	}
}

// predictCols is predictRows for column-major code storage (a Binned's
// Codes columns): the block gather transposes on the fly.
func (c *cforest) predictCols(cols [][]uint8, first int, out []float64, base float64) {
	nf := c.nf
	var stack [codeBlock * stackFeatures]uint8
	cb := stack[:]
	if nf > stackFeatures {
		cb = make([]uint8, codeBlock*nf)
	}
	var acc [codeBlock]float64
	for lo := 0; lo < len(out); lo += codeBlock {
		hi := min(lo+codeBlock, len(out))
		n := hi - lo
		for f, col := range cols {
			col = col[first+lo : first+hi]
			for r, v := range col {
				cb[r*nf+f] = v
			}
		}
		for r := 0; r < n; r++ {
			acc[r] = base
		}
		c.walkBlock(cb, n, acc[:n])
		copy(out[lo:hi], acc[:n])
	}
}

// CodeSpace reports whether the model carries a code-space forest — i.e.
// it was histogram-trained and every split threshold verified against the
// stored bin edges, so PredictCodes/PredictAllBinned are available and
// bit-identical to the float path.
func (m *Model) CodeSpace() bool { return m.code != nil }

// Quantizer returns a row quantizer over the model's stored cut points,
// or nil for a model loaded without them. The quantizer is the input-side half
// of the code path: quantize once, predict many. Built once per
// model with the uniform-grid acceleration tables (the model serves for
// its lifetime, so the table build amortizes to nothing) and shared by
// every caller — Quantizer is immutable and concurrency-safe.
func (m *Model) Quantizer() *dataset.Quantizer {
	if len(m.cuts) == 0 {
		return nil
	}
	return m.rowQuantizer()
}

// QuantizeRow fills dst with the bin codes of the raw feature vector x
// under the model's cut points, suitable for PredictCodes. Returns
// ErrNoCodeSpace when the model has no code forest.
func (m *Model) QuantizeRow(x []float64, dst []uint8) error {
	if m.code == nil {
		return ErrNoCodeSpace
	}
	return m.rowQuantizer().Row(x, dst)
}

// rowQuantizer returns the shared accelerated quantizer, falling back to
// a plain one for models whose construction path predates the cache.
func (m *Model) rowQuantizer() *dataset.Quantizer {
	if m.quant != nil {
		return m.quant
	}
	return dataset.NewQuantizer(m.cuts)
}

// QuantizeSlab fills dst with the bin codes of k rows packed row-major
// into x (both k*len(Names) long), suitable for PredictCodesDense — the
// batch twin of QuantizeRow, column-major so one feature's cuts stay hot
// across all rows. Returns ErrNoCodeSpace when the model has no code
// forest.
func (m *Model) QuantizeSlab(x []float64, dst []uint8) error {
	if m.code == nil {
		return ErrNoCodeSpace
	}
	return m.rowQuantizer().Slab(x, dst)
}

// PredictCodes fills out[i] with the prediction for the pre-quantized
// row codes[i] — the zero-float-comparison batch entry point the serve
// daemon's batchers use. Every row must hold exactly len(Names) codes
// produced by this model's Quantizer (or QuantizeRow); out must have
// len(codes) slots. Results are bit-identical to PredictBatch on the raw
// rows. Large batches fan out on the worker pool exactly like
// PredictBatch.
func (m *Model) PredictCodes(codes [][]uint8, out []float64) error {
	if len(m.trees) == 0 {
		return ErrNotTrained
	}
	if m.code == nil {
		return ErrNoCodeSpace
	}
	if len(out) != len(codes) {
		return fmt.Errorf("gbt: out has %d slots for %d rows", len(out), len(codes))
	}
	for i, r := range codes {
		if len(r) != len(m.Names) {
			return fmt.Errorf("gbt: row %d has %d codes, want %d", i, len(r), len(m.Names))
		}
	}
	n := len(codes)
	workers := m.params.Workers
	if workers <= 0 {
		workers = pool.Workers()
	}
	batches := (n + predictBatch - 1) / predictBatch
	if workers > 1 && batches > 1 {
		pool.Do(batches, workers, func(bi int) {
			lo := bi * predictBatch
			hi := min(lo+predictBatch, n)
			m.code.predictRows(codes[lo:hi], out[lo:hi], m.Base)
		})
	} else {
		m.code.predictRows(codes, out, m.Base)
	}
	return nil
}

// PredictCodesDense is PredictCodes for rows packed into one contiguous
// row-major slab: codes holds len(out) rows of exactly len(Names) bytes
// each (row i at codes[i*len(Names) : (i+1)*len(Names)]), as produced by
// dataset.Quantizer.Slab. The walker reads the slab in place — no
// per-row gather copy, no slice-of-slices indirection — which is why the
// serve batcher's zero-alloc hot path stores admitted codes this way.
// Results are bit-identical to PredictCodes on the same rows (pinned by
// TestPredictCodesDenseMatchesRows). Large slabs fan out on the worker
// pool exactly like PredictCodes.
func (m *Model) PredictCodesDense(codes []uint8, out []float64) error {
	if len(m.trees) == 0 {
		return ErrNotTrained
	}
	if m.code == nil {
		return ErrNoCodeSpace
	}
	nf := len(m.Names)
	n := len(out)
	if len(codes) != n*nf {
		return fmt.Errorf("gbt: code slab has %d bytes for %d rows of %d features", len(codes), n, nf)
	}
	workers := m.params.Workers
	if workers <= 0 {
		workers = pool.Workers()
	}
	batches := (n + predictBatch - 1) / predictBatch
	if workers > 1 && batches > 1 {
		pool.Do(batches, workers, func(bi int) {
			lo := bi * predictBatch
			hi := min(lo+predictBatch, n)
			m.code.predictDense(codes[lo*nf:hi*nf], out[lo:hi], m.Base)
		})
	} else {
		m.code.predictDense(codes, out, m.Base)
	}
	return nil
}

// PredictAllBinned returns predictions for every row of the binned
// matrix, read straight from its column-major code storage — no float
// comparisons, no re-quantization. b must have been built with the same
// cut points as the model (training matrix or Bin with identical data);
// results are bit-identical to PredictAll on the raw rows.
func (m *Model) PredictAllBinned(b *dataset.Binned) ([]float64, error) {
	if len(m.trees) == 0 {
		return nil, ErrNotTrained
	}
	if m.code == nil {
		return nil, ErrNoCodeSpace
	}
	if b.NumFeatures() != len(m.Names) {
		return nil, fmt.Errorf("gbt: binned matrix has %d features, want %d", b.NumFeatures(), len(m.Names))
	}
	n := b.Len()
	out := make([]float64, n)
	workers := m.params.Workers
	if workers <= 0 {
		workers = pool.Workers()
	}
	batches := (n + predictBatch - 1) / predictBatch
	if workers > 1 && batches > 1 {
		pool.Do(batches, workers, func(bi int) {
			lo := bi * predictBatch
			hi := min(lo+predictBatch, n)
			m.code.predictCols(b.Codes, lo, out[lo:hi], m.Base)
		})
	} else {
		m.code.predictCols(b.Codes, 0, out, m.Base)
	}
	return out, nil
}
