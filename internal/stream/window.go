// Package stream turns the batch simulate→CSV→features→train chain into
// an online system: a tailer follows a growing transfer log (tail.go), a
// sliding window maintains the paper's contending-load features K, S, G
// incrementally (this file), and a refresher retrains the serving model
// on the window with a drift gate deciding whether each candidate may be
// promoted into the `wanperf serve` registry (drift.go, refresh.go).
package stream

import (
	"sort"

	"repro/internal/features"
	"repro/internal/logs"
)

// winRec is one record resident in the window, with its cached feature
// vector. A record is dirty when a neighbouring add/evict may have
// changed its contending-load features; clean records keep their cached
// vector across Vectors calls.
type winRec struct {
	rec   logs.Record
	vec   features.Vector
	dirty bool
}

// epList mirrors features.epIndex for a window endpoint: the resident
// records using it as source and as destination, each ordered by
// (Ts, ID), plus a duration bound for overlap searches. maxDur is
// monotone — it never shrinks on eviction — which is safe because it
// only widens the candidate range: candidates admitted by a loose bound
// but not overlapping contribute exactly nothing to the fold (they are
// skipped before any arithmetic), so folds with a loose bound are bit
// identical to folds with the batch path's tight bound.
type epList struct {
	asSrc, asDst []*winRec
	maxDur       float64
}

// WindowStats counts the work the incremental maintenance did: Refolds
// is how many per-record feature computations ran, CacheHits how many
// were served from cache. Their ratio is the win over batch recompute.
type WindowStats struct {
	Added, Evicted     uint64
	Refolds, CacheHits uint64
}

// Window is a count-bounded sliding window over transfer records that
// maintains the Eq. 2 contending-load features incrementally. Adding or
// evicting a record marks only the records it overlaps (at its two
// endpoints) dirty; Vectors recomputes exactly the dirty records, using
// the same per-endpoint candidate search and fold order as the batch
// features.Engineer — so the output is bit-identical to engineering the
// window's records from scratch, at a cost proportional to churn rather
// than window size. Not safe for concurrent use.
type Window struct {
	capacity int
	recs     []*winRec // (Ts, ID)-ordered, ties in arrival order
	eps      map[string]*epList
	stats    WindowStats
}

// NewWindow returns an empty window holding at most capacity records
// (minimum 1).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{capacity: capacity, eps: make(map[string]*epList)}
}

// Len returns the number of resident records.
func (w *Window) Len() int { return len(w.recs) }

// Cap returns the window capacity.
func (w *Window) Cap() int { return w.capacity }

// Stats returns the maintenance counters so far.
func (w *Window) Stats() WindowStats { return w.stats }

func (w *Window) ep(id string) *epList {
	e, ok := w.eps[id]
	if !ok {
		e = &epList{}
		w.eps[id] = e
	}
	return e
}

// recLess orders window entries the way logs.Log.SortByStart orders
// records: by start time, then ID.
func recLess(a, b *winRec) bool {
	if a.rec.Ts != b.rec.Ts {
		return a.rec.Ts < b.rec.Ts
	}
	return a.rec.ID < b.rec.ID
}

// insertRec inserts wr at its upper bound, so records with equal (Ts, ID)
// keep arrival order — matching the batch path's stable sort.
func insertRec(list []*winRec, wr *winRec) []*winRec {
	i := sort.Search(len(list), func(k int) bool { return recLess(wr, list[k]) })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = wr
	return list
}

// removeRec removes the exact entry wr (by identity) from a sorted list.
func removeRec(list []*winRec, wr *winRec) []*winRec {
	i := sort.Search(len(list), func(k int) bool { return !recLess(list[k], wr) })
	for ; i < len(list); i++ {
		if list[i] == wr {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// candRange returns the sublist whose start times fall in
// [rk.Ts − maxDur, rk.Te]: every competitor that can overlap rk, plus
// some that cannot, which add nothing to the sums.
func candRange(list []*winRec, rk *logs.Record, maxDur float64) []*winRec {
	lo := sort.Search(len(list), func(i int) bool { return list[i].rec.Ts >= rk.Ts-maxDur })
	hi := sort.Search(len(list), func(i int) bool { return list[i].rec.Ts > rk.Te })
	return list[lo:hi]
}

// Add inserts a record, marks the residents it overlaps dirty, and
// evicts the oldest records (lowest start time) while over capacity.
// It returns the evicted records in eviction order.
func (w *Window) Add(r logs.Record) []logs.Record {
	wr := &winRec{rec: r, dirty: true}
	src, dst := w.ep(r.Src), w.ep(r.Dst)
	src.asSrc = insertRec(src.asSrc, wr)
	dst.asDst = insertRec(dst.asDst, wr)
	if d := r.Duration(); d > src.maxDur {
		src.maxDur = d
	}
	if d := r.Duration(); d > dst.maxDur {
		dst.maxDur = d
	}
	w.recs = insertRec(w.recs, wr)
	w.markOverlapping(wr)
	w.stats.Added++

	var evicted []logs.Record
	for len(w.recs) > w.capacity {
		evicted = append(evicted, w.evictOldest())
	}
	return evicted
}

// evictOldest removes the first (oldest-start) record, marking the
// residents whose features it contributed to dirty.
func (w *Window) evictOldest() logs.Record {
	wr := w.recs[0]
	w.recs = w.recs[1:]
	w.markOverlapping(wr)
	src, dst := w.eps[wr.rec.Src], w.eps[wr.rec.Dst]
	src.asSrc = removeRec(src.asSrc, wr)
	dst.asDst = removeRec(dst.asDst, wr)
	w.stats.Evicted++
	return wr.rec
}

// markOverlapping marks every resident record whose fold includes wr
// dirty: a record's features only consult the endpoint lists of its own
// source and destination, so wr can only influence records appearing in
// the lists of wr's endpoints, and only when the overlap is positive.
func (w *Window) markOverlapping(wr *winRec) {
	mark := func(ep *epList) {
		for _, list := range [2][]*winRec{ep.asSrc, ep.asDst} {
			for _, c := range candRange(list, &wr.rec, ep.maxDur) {
				if c != wr && features.Overlap(&c.rec, &wr.rec) > 0 {
					c.dirty = true
				}
			}
		}
	}
	mark(w.eps[wr.rec.Src])
	if wr.rec.Dst != wr.rec.Src {
		mark(w.eps[wr.rec.Dst])
	}
}

// foldKS mirrors the K and S sums of features.accumulate over a window
// list: the overlap-scaled aggregate rate (K) and TCP stream count (S)
// of the competitors in list, folded in ascending (Ts, ID) order.
func foldKS(list []*winRec, self *winRec, maxDur float64) (kRate, sStreams float64) {
	rk := &self.rec
	dur := rk.Duration()
	if dur <= 0 {
		return 0, 0
	}
	for _, c := range candRange(list, rk, maxDur) {
		if c == self {
			continue
		}
		ri := &c.rec
		o := features.Overlap(ri, rk)
		if o <= 0 {
			continue
		}
		frac := o / dur
		kRate += frac * ri.Rate()
		sStreams += frac * float64(ri.Streams())
	}
	return kRate, sStreams
}

// foldG mirrors the G sum of features.accumulate over a window list.
func foldG(list []*winRec, self *winRec, maxDur float64) float64 {
	rk := &self.rec
	dur := rk.Duration()
	if dur <= 0 {
		return 0
	}
	var g float64
	for _, c := range candRange(list, rk, maxDur) {
		if c == self {
			continue
		}
		ri := &c.rec
		o := features.Overlap(ri, rk)
		if o <= 0 {
			continue
		}
		g += o / dur * float64(ri.Processes())
	}
	return g
}

// refold recomputes one record's vector from the current window, in the
// exact shape and order of the batch path's per-record computation.
func (w *Window) refold(wr *winRec) {
	rk := &wr.rec
	v := features.Vector{
		Rate: rk.Rate(),
		C:    float64(rk.Conc),
		P:    float64(rk.Par),
		Nf:   float64(rk.Files),
		Nd:   float64(rk.Dirs),
		Nb:   rk.Bytes,
		Nflt: float64(rk.Faults),
	}
	src, dst := w.eps[rk.Src], w.eps[rk.Dst]

	v.Ksout, v.Ssout = foldKS(src.asSrc, wr, src.maxDur)
	v.Ksin, v.Ssin = foldKS(src.asDst, wr, src.maxDur)
	v.Kdout, v.Sdout = foldKS(dst.asSrc, wr, dst.maxDur)
	v.Kdin, v.Sdin = foldKS(dst.asDst, wr, dst.maxDur)

	v.Gsrc = foldG(src.asSrc, wr, src.maxDur) + foldG(src.asDst, wr, src.maxDur)
	v.Gdst = foldG(dst.asSrc, wr, dst.maxDur) + foldG(dst.asDst, wr, dst.maxDur)

	wr.vec = v
}

// Vectors returns the feature vectors of every resident record in
// (Ts, ID) order, recomputing only the dirty ones. RecordIdx is the
// record's position in the returned order, matching what
// features.Engineer would assign over Records().
func (w *Window) Vectors() []features.Vector {
	out := make([]features.Vector, len(w.recs))
	for k, wr := range w.recs {
		if wr.dirty {
			w.refold(wr)
			wr.dirty = false
			w.stats.Refolds++
		} else {
			w.stats.CacheHits++
		}
		v := wr.vec
		v.RecordIdx = k
		out[k] = v
	}
	return out
}

// Records returns the resident records as a fresh log in window order
// (already sorted by start time, the order Engineer establishes).
func (w *Window) Records() *logs.Log {
	l := logs.NewLog()
	for _, wr := range w.recs {
		l.Append(wr.rec)
	}
	return l
}
