package simulate

// dirty.go implements the event core's incremental fair-share resolution:
// events mark the endpoints and resources they perturb, and resolve()
// re-solves only the resource-sharing components reachable from dirty
// resources, reusing engine-owned scratch. The reference core in
// refcore_test.go re-solves everything from scratch; differential tests
// pin the two to byte-identical logs (DESIGN.md §9).

// ensureResState grows the per-resource engine state (load, membership,
// dirty flags) to cover lazily created WAN resources. Growth appends zeros
// so incrementally maintained values survive.
func (e *Engine) ensureResState() {
	n := len(e.resources)
	for len(e.resLoad) < n {
		e.resLoad = append(e.resLoad, 0)
		e.resMembers = append(e.resMembers, 0)
	}
	for len(e.resDirty) < n {
		e.resDirty = append(e.resDirty, false)
	}
}

// dirtyResource marks a resource whose capacity, background share, or
// membership changed; the next incResolve re-solves its component.
func (e *Engine) dirtyResource(ri int) {
	for len(e.resDirty) <= ri {
		e.resDirty = append(e.resDirty, false)
	}
	if !e.resDirty[ri] {
		e.resDirty[ri] = true
		e.dirtyRes = append(e.dirtyRes, ri)
	}
}

// dirtyProcs marks an endpoint whose GridFTP process count changed: its
// CPU-contention multiplier, and therefore both disk resources' effective
// capacities, must be refreshed before the next solve.
func (e *Engine) dirtyProcs(ep int) {
	if !e.epDirty[ep] {
		e.epDirty[ep] = true
		e.dirtyEps = append(e.dirtyEps, ep)
	}
	e.dirtyResource(e.epResource(ep, resDiskRead))
	e.dirtyResource(e.epResource(ep, resDiskWrite))
}

// markFreed flags an endpoint that released a slot (completion, outage
// abort, or outage end) for the next waiting-queue probe. Every release is
// probed within the same event (processEvents after completions,
// processChaos after outage starts and ends), so no flag outlives its
// event: a flag left for a later, unrelated event would start a waiting
// transfer at a time set by another component, which the sharded driver
// cannot reproduce.
func (e *Engine) markFreed(ep int) {
	if !e.freedMark[ep] {
		e.freedMark[ep] = true
		e.freedPending = append(e.freedPending, ep)
	}
}

// incResolve is the incremental resolver: refresh CPU-contention capacity
// for dirtied endpoints, re-solve each resource-sharing component reachable
// from a dirty resource, then redraw fault deadlines. Untouched components
// keep their stored rates and deadlines — which are bitwise what a
// from-scratch solve would recompute, since a component's solve depends
// only on its own members and capacities.
func (e *Engine) incResolve() {
	for _, i := range e.dirtyEps {
		e.epDirty[i] = false
		eff := e.w.Endpoints[i].cpuEff(e.procsAt[i])
		rd := e.resources[e.epResource(i, resDiskRead)]
		rd.effCap = rd.cap * eff
		wr := e.resources[e.epResource(i, resDiskWrite)]
		wr.effCap = wr.cap * eff
	}
	e.dirtyEps = e.dirtyEps[:0]

	if len(e.dirtyRes) > 0 {
		e.ensureResState()
		e.compBuf = e.compBuf[:0]
		e.compRes = e.compRes[:0]
		for _, seed := range e.dirtyRes {
			if !e.resources[seed].visited {
				e.solveDirtyComponent(seed)
			}
		}
		for _, ri := range e.compRes {
			e.resources[ri].visited = false
		}
		for _, x := range e.compBuf {
			x.inComp = false
		}
		for _, ri := range e.dirtyRes {
			e.resDirty[ri] = false
		}
		e.dirtyRes = e.dirtyRes[:0]
	}

	// Fault deadlines depend on utilization everywhere, so when faults are
	// enabled at all, redraw globally exactly as a from-scratch resolve
	// does. With a zero base hazard no transfer ever draws.
	if e.w.FaultBaseHazard > 0 {
		e.redrawFaults()
	}
	if e.monitor != nil {
		e.refreshSnapshot(e.procsAt)
	}
}

// solveDirtyComponent BFSes the bipartite transfer↔resource sharing graph
// from a dirty seed resource, collecting the component's transfers and
// resources into the per-event scratch (compBuf/compRes keep everything
// visited this event so marks can be cleared afterwards), then solves the
// component in activation order.
func (e *Engine) solveDirtyComponent(seed int) {
	xs0, rs0 := len(e.compBuf), len(e.compRes)
	e.resources[seed].visited = true
	e.compRes = append(e.compRes, seed)
	for qi := rs0; qi < len(e.compRes); qi++ {
		r := e.resources[e.compRes[qi]]
		for _, x := range r.members {
			if x.inComp {
				continue
			}
			x.inComp = true
			e.compBuf = append(e.compBuf, x)
			for _, ri := range x.resIdx {
				rr := e.resources[ri]
				if !rr.visited {
					rr.visited = true
					e.compRes = append(e.compRes, ri)
				}
			}
		}
	}
	// Zero the component's loads (covers memberless dirty resources — e.g.
	// a resource whose last member just departed); commitScope accumulates
	// the survivors.
	for _, ri := range e.compRes[rs0:] {
		e.resLoad[ri] = 0
		e.resMembers[ri] = 0
	}
	comp := e.compBuf[xs0:]
	sortByActSeq(comp)
	used := e.initScope(comp, e.compUsed[:0])
	e.solveScope(comp, used)
	e.commitScope(comp, used)
	e.compUsed = used
}

// startWaitingIndexed probes only the per-endpoint waiting queues of
// endpoints that freed a slot since the last probe. Each queue is already
// in waitSeq (FIFO) order, so the probe k-way-merges the queue heads and
// admits with live slot checks — the exact admission sequence of a full
// FIFO scan. Two prunings keep the probe sublinear in queue
// length, both sound because slots only shrink while admitting:
//   - a transfer outside the probe set still has an endpoint whose slots
//     have not freed since it was last rejected, so the full scan would
//     reject it again;
//   - once a probed endpoint runs out of slots, every deeper entry of its
//     queue (which all touch that endpoint) is unstartable this round.
func (e *Engine) startWaitingIndexed() {
	if len(e.freedPending) == 0 {
		return
	}
	qs := e.probeQs[:0]
	eps := e.probeEps[:0]
	pos := e.probePos[:0]
	for _, ep := range e.freedPending {
		e.freedMark[ep] = false
		q := e.epWaiting[ep]
		// Amortized tombstone cleanup: started and re-queued transfers leave
		// stale entries behind; compact once they dominate.
		if dead := e.epWaitDead[ep]; dead > 16 && 2*dead >= len(q) {
			live := q[:0]
			for _, en := range q {
				if en.live() {
					live = append(live, en)
				}
			}
			e.epWaiting[ep] = live
			e.epWaitDead[ep] = 0
			q = live
		}
		if len(q) > 0 {
			qs = append(qs, q)
			eps = append(eps, ep)
			pos = append(pos, 0)
		}
	}
	e.freedPending = e.freedPending[:0]
	for {
		best := -1
		var bx *xfer
		for qi, q := range qs {
			if !e.hasSlot(eps[qi]) {
				continue // endpoint full: rest of this queue is unstartable
			}
			p := pos[qi]
			for p < len(q) && !q[p].live() {
				p++
			}
			pos[qi] = p
			if p < len(q) && (best < 0 || q[p].seq < bx.waitSeq) {
				best, bx = qi, q[p].x
			}
		}
		if best < 0 {
			break
		}
		pos[best]++
		// A transfer with both endpoints probed surfaces in two queues; the
		// second encounter is a no-op (started → skipped as a tombstone,
		// rejected → rejected again, since slots never grow mid-round).
		if e.hasSlot(bx.srcIdx) && e.hasSlot(bx.dstIdx) {
			e.startWaiter(bx)
		}
	}
	e.probeQs = qs[:0] // drop the entry references, keep capacity
	e.probeEps = eps
	e.probePos = pos
	e.compactWaiting()
}

// startWaiter starts a waiting transfer, tombstoning its queue entries.
func (e *Engine) startWaiter(x *xfer) {
	x.inWaiting = false
	e.waitLive--
	e.epWaitDead[x.srcIdx]++
	if x.dstIdx != x.srcIdx {
		e.epWaitDead[x.dstIdx]++
	}
	e.start(x)
}

// live reports whether a queue entry still denotes a waiting transfer: the
// transfer must be waiting AND still on the wait episode this entry was
// appended under (see waitEntry).
func (en waitEntry) live() bool {
	return en.x.inWaiting && en.x.waitSeq == en.seq
}

// compactWaiting rebuilds the global FIFO slice once tombstones dominate,
// preserving order. The slice itself is only read for diagnostics and the
// final drain check; admission order comes from waitSeq.
func (e *Engine) compactWaiting() {
	if len(e.waiting) < 64 || 2*e.waitLive > len(e.waiting) {
		return
	}
	keep := e.waiting[:0]
	for _, x := range e.waiting {
		if x.inWaiting {
			keep = append(keep, x)
		}
	}
	e.waiting = keep
}

// sortByActSeq heap-sorts transfers by activation order — allocation-free,
// unlike sort.Slice. actSeq values are unique, so the sort is total.
func sortByActSeq(xs []*xfer) {
	n := len(xs)
	for i := n/2 - 1; i >= 0; i-- {
		siftActSeq(xs, i, n)
	}
	for i := n - 1; i > 0; i-- {
		xs[0], xs[i] = xs[i], xs[0]
		siftActSeq(xs, 0, i)
	}
}

func siftActSeq(xs []*xfer, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && xs[r].actSeq > xs[l].actSeq {
			m = r
		}
		if xs[i].actSeq >= xs[m].actSeq {
			return
		}
		xs[i], xs[m] = xs[m], xs[i]
		i = m
	}
}
