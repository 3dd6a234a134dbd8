package simulate

// shard.go implements the component-sharded event core (DESIGN.md §12).
// Two transfers can only ever influence each other through a shared
// resource — an endpoint's four resources or a directed site-pair WAN
// resource — so the connected components of the static resource-sharing
// graph (the same structure dirty.go re-solves incrementally within one
// engine) partition the workload into sub-simulations that are exactly
// independent: same events, same float arithmetic, same RNG draws. The
// driver below unions endpoints over the submitted specs, runs one
// sub-engine per component on up to Shards internal/pool workers, and
// merges the sorted sub-logs in one linear pass. Byte-identity with the
// serial engine rests on four invariants kept elsewhere:
//
//   - every RNG draw comes from a per-entity stream keyed by stable
//     identity (prng.go), never from engine-global state;
//   - payload floats advance only at a transfer's own component-local
//     times (advancePayload/commitScope), never at foreign events;
//   - record IDs are global submission stamps assigned before
//     partitioning (assignStamps), so (Ts, ID) totally orders the merged
//     records and merging the sorted sub-logs reproduces the serial log
//     byte for byte;
//   - every slot release is probed for waiting transfers within the
//     event that made it (markFreed), so no admission waits on an event
//     of another component.
//
// Chaos routing: outages are endpoint-scoped and go only to the
// sub-engine owning that endpoint; WAN faults and storms broadcast to
// every sub-engine — they scale capacities/hazards without coupling
// components, and their boundaries must be events on every sub-engine's
// clock so fault redraws happen at the serial engine's times.

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/logs"
	"repro/internal/pool"
)

// shardWork is one component's sub-simulation: its endpoints (world
// order), specs and chains (submission order) and routed chaos plan on
// the way in; its log, stats and violations on the way out.
type shardWork struct {
	eps    []int
	specs  []TransferSpec
	chains [][]TransferSpec
	size   int // specs plus chain members: the load-balancing weight
	plan   *ChaosPlan

	log   *logs.Log
	stats Stats
	viol  []string
}

// runSharded partitions the stamped workload by resource-sharing
// component and runs one sub-engine per component on up to e.shards
// workers. It reports handled=false when the workload has fewer than two
// components, in which case RunContext falls through to the serial loop.
func (e *Engine) runSharded(ctx context.Context) (*logs.Log, error, bool) {
	nEp := len(e.w.Endpoints)

	// Union-find over endpoint indices plus one virtual node per
	// directed site pair (lazily appended past nEp): a network-crossing
	// spec couples its endpoints to the shared WAN resource of its path.
	parent := make([]int, nEp, nEp+16)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	pairNode := make(map[string]int)
	used := make([]bool, nEp)
	touch := func(s *TransferSpec) {
		si, di := e.epIndex(s.Src), e.epIndex(s.Dst)
		used[si], used[di] = true, true
		union(si, di)
		if si != di && !s.SkipNetwork {
			key := e.w.Endpoints[si].Site.Name + "|" + e.w.Endpoints[di].Site.Name
			n, ok := pairNode[key]
			if !ok {
				n = len(parent)
				parent = append(parent, n)
				pairNode[key] = n
			}
			union(si, n)
		}
	}
	for i := range e.pending {
		touch(&e.pending[i])
	}
	for _, ch := range e.chains {
		prev := -1
		for i := range ch.specs {
			touch(&ch.specs[i])
			si := e.epIndex(ch.specs[i].Src)
			if prev >= 0 {
				union(prev, si) // chain links couple consecutive specs
			}
			prev = si
		}
	}

	// Dense component ids in endpoint-index order; idle endpoints (no
	// specs) belong to no component and no sub-world.
	compOf := make(map[int]int)
	var works []shardWork
	epComp := make([]int, nEp)
	for i := 0; i < nEp; i++ {
		epComp[i] = -1
		if !used[i] {
			continue
		}
		r := find(i)
		c, ok := compOf[r]
		if !ok {
			c = len(works)
			compOf[r] = c
			works = append(works, shardWork{})
		}
		works[c].eps = append(works[c].eps, i)
		epComp[i] = c
	}
	e.m.components.Set(float64(len(works)))
	if len(works) < 2 {
		return nil, nil, false
	}

	specComp := make([]int, len(e.pending))
	for i := range e.pending {
		c := epComp[e.epIndex(e.pending[i].Src)]
		specComp[i] = c
		works[c].size++
	}
	for c := range works {
		works[c].specs = make([]TransferSpec, 0, works[c].size)
	}
	for i, c := range specComp {
		works[c].specs = append(works[c].specs, e.pending[i])
	}
	for _, ch := range e.chains {
		w := &works[epComp[e.epIndex(ch.specs[0].Src)]]
		w.chains = append(w.chains, ch.specs)
		w.size += len(ch.specs)
	}
	if p := e.chaosPlan; p != nil {
		outages := make([][]OutageEvent, len(works))
		for _, o := range p.Outages {
			// An outage on an idle endpoint (no specs, so no component)
			// cannot affect any transfer; drop it.
			if c := epComp[e.epIndex(o.EndpointID)]; c >= 0 {
				outages[c] = append(outages[c], o)
			}
		}
		for c := range works {
			// WAN faults and storms broadcast (read-only shared slices).
			works[c].plan = &ChaosPlan{Outages: outages[c], WANFaults: p.WANFaults, Storms: p.Storms}
		}
	}

	// Heaviest components first, so the pool's shared counter hands the
	// long runs out early and the short ones fill in behind them.
	order := make([]int, len(works))
	for c := range order {
		order[c] = c
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(works[b].size, works[a].size) })
	err := pool.ForEach(ctx, len(works), e.shards, func(ctx context.Context, i int) error {
		wk := &works[order[i]]
		sub := NewEngine(e.subWorld(wk.eps), e.seed)
		sub.ref = e.ref
		sub.preStamped = true
		sub.m = e.m // shared instruments; counters are atomic
		sub.pending = wk.specs
		for _, cs := range wk.chains {
			sub.SubmitChain(cs...)
		}
		if !wk.plan.Empty() {
			if err := sub.SetChaos(wk.plan); err != nil {
				return err
			}
		}
		l, err := sub.RunContext(ctx)
		if err != nil {
			return err
		}
		wk.log, wk.stats, wk.viol = l, sub.Stats(), sub.violations
		wk.specs = nil
		return nil
	})
	if err != nil {
		return nil, err, true
	}

	// Combine in component-id order, so nothing depends on scheduling.
	// Stamps are globally unique, so (Ts, ID) totally orders the records
	// and merging the sorted sub-logs gives the serial engine's log byte
	// for byte. The parent log holds the FULL world's endpoint directory.
	// Stats sum; Submitted is the parent's own count.
	subLogs := make([][]logs.Record, len(works))
	n := 0
	for c := range works {
		wk := &works[c]
		subLogs[c] = wk.log.Records
		n += len(wk.log.Records)
		e.stats.Completed += wk.stats.Completed
		e.stats.Faults += wk.stats.Faults
		e.stats.Retries += wk.stats.Retries
		e.stats.Abandoned += wk.stats.Abandoned
		e.stats.OutageAborts += wk.stats.OutageAborts
		e.stats.OutageStalls += wk.stats.OutageStalls
		e.violations = append(e.violations, wk.viol...)
	}
	e.log.Records = logs.MergeByStart(make([]logs.Record, 0, n), subLogs)
	return e.log, nil, true
}

// subWorld builds the shard's world: the listed endpoints (world order)
// with every tunable copied from the parent. Endpoint structs are shared
// read-only.
func (e *Engine) subWorld(eps []int) *World {
	sw := *e.w
	sw.Endpoints = make([]*Endpoint, 0, len(eps))
	sw.byID = make(map[string]*Endpoint, len(eps))
	for _, i := range eps {
		ep := e.w.Endpoints[i]
		sw.Endpoints = append(sw.Endpoints, ep)
		sw.byID[ep.ID] = ep
	}
	return &sw
}
