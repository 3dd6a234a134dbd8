package simulate

import (
	"fmt"
	"math"
)

// refcore_test.go is the reference event core: the O(events × actives)
// oracle the production core is held to, byte for byte, by the
// differential tests, the property sweep and FuzzEngineSchedules. It takes
// over the engine's three decision points through the referenceCore seam:
//
//   - workEventTime scans every event source linearly, and checks that
//     the heaps and scalar minima the production core reads agree;
//   - resolve re-derives CPU contention, the component partition and
//     every component's solve from scratch;
//   - startWaiting scans the whole FIFO waiting queue.
//
// Everything else — admission, processEvents, the solver itself — is the
// production code, so the engine digests (digest_test.go) pin what the two
// cores share.

// refCore is stateless: sharded runs hand the one value to every
// sub-engine, and each call allocates its own scratch.
type refCore struct{}

// setReference switches an engine to the reference core (on) or back to
// the production core. Must be called before Run.
func setReference(e *Engine, on bool) {
	if on {
		e.ref = refCore{}
	} else {
		e.ref = nil
	}
}

// workEventTime scans all work sources for the earliest upcoming event. A
// disagreement with the heaps means the production bookkeeping went
// stale: it is recorded as a violation and the scan reports no event, so
// the run stops with a DeadlockError carrying the violation instead of
// spinning on a phantom or missing event.
func (refCore) workEventTime(e *Engine) float64 {
	t := math.Inf(1)
	if e.nextPending < len(e.pending) {
		t = e.pending[e.nextPending].Start
	}
	for _, ch := range e.chains {
		t = math.Min(t, ch.nextStart)
	}
	for _, x := range e.active {
		switch x.phase {
		case phaseSetup, phaseStall:
			t = math.Min(t, x.phaseEnd)
		case phaseData:
			t = math.Min(t, x.doneAt)
			t = math.Min(t, x.nextFault)
		}
	}
	if e.nextChaos < len(e.chaosEvents) {
		t = math.Min(t, e.chaosEvents[e.nextChaos].t)
	}
	for _, x := range e.retryQ {
		t = math.Min(t, x.retryAt)
	}
	bg := math.Inf(1)
	for _, b := range e.bgNext {
		bg = math.Min(bg, b)
	}
	if h, hbg := e.heapWorkEventTime(), e.bgHeap.min(); h != t || hbg != bg {
		e.violate(fmt.Sprintf("stale event heaps at now=%.9g: scan work %.9g bg %.9g, heaps work %.9g bg %.9g",
			e.now, t, bg, h, hbg))
		return math.Inf(1)
	}
	return t
}

// resolve recomputes CPU-contention multipliers, the component partition
// and every component's rates from scratch, checking the incrementally
// maintained process counts on the way. The production core's dirty marks
// are moot after a full solve and are cleared.
func (refCore) resolve(e *Engine) {
	procs := make([]float64, len(e.w.Endpoints))
	for _, x := range e.active {
		procs[x.srcIdx] += float64(x.procs)
		if x.dstIdx != x.srcIdx {
			procs[x.dstIdx] += float64(x.procs)
		}
	}
	for i, ep := range e.w.Endpoints {
		if procs[i] != e.procsAt[i] {
			e.violate(fmt.Sprintf("endpoint %s: %g processes counted incrementally, %g active at t=%.1f",
				ep.ID, e.procsAt[i], procs[i], e.now))
		}
		eff := ep.cpuEff(procs[i])
		rd := e.resources[e.epResource(i, resDiskRead)]
		rd.effCap = rd.cap * eff
		wr := e.resources[e.epResource(i, resDiskWrite)]
		wr.effCap = wr.cap * eff
	}
	for _, i := range e.dirtyEps {
		e.epDirty[i] = false
	}
	e.dirtyEps = e.dirtyEps[:0]

	e.ensureResState()
	for _, ri := range e.dirtyRes {
		e.resDirty[ri] = false
	}
	e.dirtyRes = e.dirtyRes[:0]
	// Per-resource transfer load, rebuilt from scratch: zero everything,
	// then let each component's commit accumulate its members.
	for i := range e.resLoad {
		e.resLoad[i] = 0
		e.resMembers[i] = 0
	}
	var data []*xfer
	for _, x := range e.active {
		if x.phase == phaseData {
			data = append(data, x)
		}
	}
	if len(data) > 0 {
		refSolveComponents(e, data)
	}

	e.redrawFaults()
	if e.monitor != nil {
		e.refreshSnapshot(procs)
	}
}

// refSolveComponents partitions the data-phase transfers into resource-
// sharing components (union-find over resource indices, dense component
// ids in first-appearance order, stable counting scatter) and solves each
// component in isolation. The scatter preserves activation order within a
// component — the summation order the incremental resolver reproduces.
func refSolveComponents(e *Engine, data []*xfer) {
	parent := make([]int, len(e.resources))
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, x := range data {
		for _, ri := range x.resIdx {
			parent[ri] = ri
		}
	}
	for _, x := range data {
		root := find(x.resIdx[0])
		for _, ri := range x.resIdx[1:] {
			if r := find(ri); r != root {
				parent[r] = root
			}
		}
	}
	compID := make([]int, len(e.resources))
	for _, x := range data {
		compID[find(x.resIdx[0])] = -1
	}
	var counts []int
	xcomp := make([]int, 0, len(data))
	for _, x := range data {
		root := find(x.resIdx[0])
		id := compID[root]
		if id < 0 {
			id = len(counts)
			compID[root] = id
			counts = append(counts, 0)
		}
		counts[id]++
		xcomp = append(xcomp, id)
	}
	offsets := make([]int, 0, len(counts))
	total := 0
	for _, c := range counts {
		offsets = append(offsets, total)
		total += c
	}
	buf := make([]*xfer, len(data))
	for i, x := range data {
		id := xcomp[i]
		buf[offsets[id]] = x
		offsets[id]++
	}
	start := 0
	for _, c := range counts {
		comp := buf[start : start+c]
		start += c
		used := e.initScope(comp, nil)
		e.solveScope(comp, used)
		e.commitScope(comp, used)
	}
}

// startWaiting starts, in FIFO order, every waiting transfer whose
// endpoints both have a free slot, scanning the whole queue. The
// production core's freed-endpoint marks are moot after a full scan and
// are cleared.
func (refCore) startWaiting(e *Engine) {
	keep := e.waiting[:0]
	for _, x := range e.waiting {
		switch {
		case !x.inWaiting:
			// tombstone: already started
		case e.hasSlot(x.srcIdx) && e.hasSlot(x.dstIdx):
			e.startWaiter(x)
		default:
			keep = append(keep, x)
		}
	}
	e.waiting = keep
	for _, ep := range e.freedPending {
		e.freedMark[ep] = false
	}
	e.freedPending = e.freedPending[:0]
}
