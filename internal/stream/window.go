// Package stream turns the batch simulate→CSV→features→train chain into
// an online system: a tailer follows a growing transfer log (tail.go), a
// sliding window maintains the paper's contending-load features K, S, G
// incrementally (this file), and a refresher retrains the serving model
// on the window with a drift gate deciding whether each candidate may be
// promoted into the `wanperf serve` registry (drift.go, refresh.go).
package stream

import (
	"slices"
	"sort"

	"repro/internal/features"
	"repro/internal/logs"
)

// slot is one resident record with its cached feature vector. A slot is
// dirty when a neighbouring add/evict may have changed its
// contending-load features; clean slots keep their cached vector across
// Vectors calls.
type slot struct {
	rec   logs.Record
	vec   features.Vector
	dirty bool
}

// WindowStats counts the work the incremental maintenance did: Refolds
// is how many per-record feature computations ran, CacheHits how many
// were served from cache. Their ratio is the win over batch recompute.
type WindowStats struct {
	Added, Evicted     uint64
	Refolds, CacheHits uint64
}

// Window is a count-bounded sliding window over transfer records that
// maintains the Eq. 2 contending-load features incrementally. Residents
// live in slots: row s of one features.Load and entry s of slots, with
// evicted slots reused through a free list. Each endpoint keeps two
// features.EpList indexes of slot ids in (Ts, ID) order, ties in arrival
// order, with their running maximum end kept across mid-list inserts and
// head evictions. Adding or evicting a record marks only the records it
// overlaps (at its two endpoints) dirty; Vectors refolds exactly the
// dirty records with features.Load.Contend, the kernel the batch
// features.Engineer runs over the same lists in the same order — so the
// output is bit-identical to engineering the window's records from
// scratch, at a cost proportional to churn rather than window size. Not
// safe for concurrent use.
type Window struct {
	capacity int
	load     features.Load
	slots    []slot
	free     []int32
	order    []int32 // resident slots in (Ts, ID) order, ties in arrival order
	eps      map[string]*features.Endpoint
	stats    WindowStats
}

// NewWindow returns an empty window holding at most capacity records
// (minimum 1).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{capacity: capacity, eps: make(map[string]*features.Endpoint)}
}

// Len returns the number of resident records.
func (w *Window) Len() int { return len(w.order) }

// Cap returns the window capacity.
func (w *Window) Cap() int { return w.capacity }

// Stats returns the maintenance counters so far.
func (w *Window) Stats() WindowStats { return w.stats }

func (w *Window) ep(id string) *features.Endpoint {
	e, ok := w.eps[id]
	if !ok {
		e = &features.Endpoint{}
		w.eps[id] = e
	}
	return e
}

// upper returns the position in ids after every slot that sorts at or
// before slot s by (Ts, ID), so records with equal keys keep arrival
// order — matching the batch path's stable sort.
func (w *Window) upper(ids []int32, s int32) int {
	ts, id := w.load.Ts[s], w.slots[s].rec.ID
	return sort.Search(len(ids), func(k int) bool {
		c := ids[k]
		return ts < w.load.Ts[c] || ts == w.load.Ts[c] && id < w.slots[c].rec.ID
	})
}

// Add inserts a record, marks the residents it overlaps dirty, and
// evicts the oldest records (lowest start time) while over capacity.
// It returns the evicted records in eviction order.
func (w *Window) Add(r logs.Record) []logs.Record {
	var s int32
	if n := len(w.free); n > 0 {
		s, w.free = w.free[n-1], w.free[:n-1]
		w.slots[s] = slot{rec: r, dirty: true}
	} else {
		s = int32(len(w.slots))
		w.slots = append(w.slots, slot{rec: r, dirty: true})
	}
	w.load.Set(int(s), &r)
	src, dst := &w.ep(r.Src).AsSrc, &w.ep(r.Dst).AsDst
	src.Insert(w.upper(src.IDs, s), s, r.Te)
	dst.Insert(w.upper(dst.IDs, s), s, r.Te)
	w.order = slices.Insert(w.order, w.upper(w.order, s), s)
	w.markOverlapping(s)
	w.stats.Added++

	var evicted []logs.Record
	for len(w.order) > w.capacity {
		evicted = append(evicted, w.evictOldest())
	}
	return evicted
}

// evictOldest removes the first (oldest-start) record, marking the
// residents whose features it contributed to dirty. The record heads
// both of its endpoint lists too, since they order by the same key and
// tie rule as the window.
func (w *Window) evictOldest() logs.Record {
	s := w.order[0]
	w.order = w.order[1:]
	w.markOverlapping(s)
	r := w.slots[s].rec
	w.eps[r.Src].AsSrc.DropHead(w.load.Te)
	w.eps[r.Dst].AsDst.DropHead(w.load.Te)
	for _, id := range [2]string{r.Src, r.Dst} {
		if e := w.eps[id]; e != nil && len(e.AsSrc.IDs)+len(e.AsDst.IDs) == 0 {
			delete(w.eps, id)
		}
	}
	w.free = append(w.free, s)
	w.stats.Evicted++
	return r
}

// markOverlapping marks every resident record whose fold includes slot s
// dirty: a record's features only consult the endpoint lists of its own
// source and destination, so s can only influence records appearing in
// the lists of s's endpoints, and only when the overlap is positive. It
// scans the range Load.Fold scans for s.
func (w *Window) markOverlapping(s int32) {
	ts, te := w.load.Ts[s], w.load.Te[s]
	mark := func(ep *features.Endpoint) {
		for _, e := range [2]*features.EpList{&ep.AsSrc, &ep.AsDst} {
			for _, c := range e.IDs[e.From(ts):] {
				if w.load.Ts[c] > te {
					break
				}
				if c != s && w.load.Overlap(int(c), int(s)) > 0 {
					w.slots[c].dirty = true
				}
			}
		}
	}
	r := &w.slots[s].rec
	mark(w.eps[r.Src])
	if r.Dst != r.Src {
		mark(w.eps[r.Dst])
	}
}

// Vectors returns the feature vectors of every resident record in
// (Ts, ID) order, recomputing only the dirty ones. RecordIdx is the
// record's position in the returned order, matching what
// features.Engineer would assign over Records().
func (w *Window) Vectors() []features.Vector {
	out := make([]features.Vector, len(w.order))
	for k, s := range w.order {
		sl := &w.slots[s]
		if sl.dirty {
			sl.vec = features.NewVector(&sl.rec)
			w.load.Contend(&sl.vec, int(s), w.eps[sl.rec.Src], w.eps[sl.rec.Dst])
			sl.dirty = false
			w.stats.Refolds++
		} else {
			w.stats.CacheHits++
		}
		out[k] = sl.vec
		out[k].RecordIdx = k
	}
	return out
}

// Records returns the resident records as a fresh log in window order
// (already sorted by start time, the order Engineer establishes).
func (w *Window) Records() *logs.Log {
	l := logs.NewLog()
	for _, s := range w.order {
		l.Append(w.slots[s].rec)
	}
	return l
}
