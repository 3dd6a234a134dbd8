package simulate

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/logs"
	"repro/internal/obs"
)

// TransferSpec describes one transfer to simulate. The Skip* flags support
// the testbed measurement modes of §3.1: /dev/zero sources skip the source
// disk, /dev/null sinks skip the destination disk, and local loopback
// measurements skip the network.
type TransferSpec struct {
	Src, Dst string  // endpoint IDs
	Start    float64 // submission time (s)
	Bytes    float64 // total bytes
	Files    int     // Nf
	Dirs     int     // Nd
	Conc     int     // C
	Par      int     // P

	SkipSrcDisk bool // source reads from /dev/zero
	SkipDstDisk bool // destination writes to /dev/null
	SkipNetwork bool // both endpoints on the same host (loopback)

	// stamp is 1 + the spec's global submission index, assigned by
	// RunContext over the Start-sorted pending list and then the chains
	// (0 = not yet assigned). It keys the transfer's private RNG stream
	// and becomes the log record ID, so a spec produces the same draws
	// and the same record whether it runs in the full engine or in a
	// component shard (shard.go pre-stamps before partitioning).
	stamp int
}

// Monitor observes the simulation between events; the lmt package uses it
// to reproduce the §5.5.2 storage-monitoring experiment. OnInterval is
// called once per inter-event interval [t0, t1) during which all loads are
// constant.
type Monitor interface {
	OnInterval(t0, t1 float64, loads []EndpointLoad)
}

// EndpointLoad is the true instantaneous load at one endpoint — including
// the background load that the transfer log does NOT record. Only a
// Monitor (the simulated LMT) can see it.
type EndpointLoad struct {
	EndpointID    string
	DiskReadMBps  float64 // total read load including background
	DiskWriteMBps float64 // total write load including background
	BgReadMBps    float64 // background-only read component
	BgWriteMBps   float64 // background-only write component
	Procs         int     // active GridFTP processes
	CPUEff        float64 // storage efficiency multiplier currently in force
}

// Resource kinds, per endpoint (4) plus one WAN resource per site pair.
const (
	resDiskRead = iota
	resDiskWrite
	resNetOut
	resNetIn
	resKindsPerEndpoint
)

type resource struct {
	cap     float64 // static capacity (MB/s)
	effCap  float64 // capacity after CPU-contention multiplier
	bgFrac  float64 // fraction of capacity the background currently takes
	epIdx   int     // owning endpoint index, -1 for WAN
	kind    int     // resDiskRead..resNetIn, or -1 for WAN
	remain  float64 // solver state
	sumW    float64 // solver state: weight of unfrozen users
	touched bool    // solver state: participates in current solve

	// Sharing-graph state for the incremental resolver: the data-phase
	// transfers currently drawing on this resource (maintained by
	// enterData/leaveData), and a BFS mark for component discovery.
	members []*xfer
	visited bool
}

type phase int

const (
	phaseSetup phase = iota
	phaseData
	phaseStall
)

type xfer struct {
	id        int  // dense per-engine admission index (event-heap key)
	stamp     int  // global submission stamp (RNG stream key + log ID)
	rs        prng // private jitter/fault/retry stream (see prng.go)
	spec      TransferSpec
	srcIdx    int
	dstIdx    int
	resIdx    []int // resources this transfer consumes
	procs     int
	weight    float64 // TCP stream count: sharing weight under contention
	demand    float64 // MB/s ceiling from stream window and per-process disk
	rateEff   float64 // unobservable per-transfer efficiency (World.JitterSigma)
	phase     phase
	phaseEnd  float64 // end of setup or stall
	chainID   int     // 1+index into engine.chains, 0 when not chained
	startedAt float64 // first activation time (logged as Ts; kept across retries)
	started   bool    // startedAt has been recorded
	overhead  float64 // setup duration once started
	bytesMB   float64 // remaining payload in MB
	rate      float64 // current allocation, MB/s
	frozen    bool    // solver state
	faults    int
	nextFault float64
	retries   int     // whole-transfer restarts after outage aborts
	retryAt   float64 // when the next attempt re-enters the queue

	// Event-core bookkeeping (see DESIGN.md §9). doneAt is the stable
	// completion deadline: recomputed only when the resolved rate changes
	// (prevRate) or the transfer re-enters the data phase (needDeadline),
	// so a component the incremental resolver leaves untouched keeps the
	// bitwise deadline a from-scratch solve would re-derive.
	doneAt       float64
	prevRate     float64
	needDeadline bool
	lastAdv      float64 // payload last advanced to this time (data phase)
	lastHaz      float64 // hazard in force at the last fault draw
	needFault    bool    // entered the data phase; next redraw must draw
	actSeq       int     // activation order; solver scopes sort by it
	waitSeq      int     // FIFO order in the waiting queue
	inWaiting    bool
	inComp       bool   // scratch: component-BFS mark (incResolve)
	memberPos    [5]int // position in each resource's member list, parallel to resIdx
}

// waitEntry is one slot in a per-endpoint waiting queue. It records the
// waitSeq the transfer held when appended: a retried transfer re-enters the
// queue as a fresh entry with a new seq, and its earlier entries — which
// would otherwise read the new seq through the shared pointer and break the
// queue's sortedness — are recognized as stale by the seq mismatch.
type waitEntry struct {
	x   *xfer
	seq int
}

// Engine runs transfers through a world and collects the resulting log.
type Engine struct {
	w    *World
	seed int64

	// Per-endpoint background streams, parallel to w.Endpoints. Each
	// transfer's stream lives on the xfer itself (see prng.go for why
	// there is no engine-wide RNG).
	epRng []prng

	// preStamped marks a shard sub-engine whose specs already carry
	// their global submission stamps (shard.go); RunContext then skips
	// stamp assignment.
	preStamped bool

	// shards is the worker budget of the component-sharded driver
	// (SetShards); <=1 runs the classic serial event loop.
	shards int

	pending     []TransferSpec // sorted by Start
	nextPending int
	active      []*xfer
	waiting     []*xfer  // admitted FIFO queue per Globus-style endpoint limits
	chains      []*chain // closed-loop transfer sequences
	epActive    []int    // running transfers touching each endpoint

	resources  []*resource
	wanIdx     map[string]int
	wanSites   map[int][2]string // WAN resource index → site pair
	epIdx      map[string]int
	resLoad    []float64 // per-resource transfer load, rebuilt each resolve
	resMembers []int     // per-resource data-phase transfer count, ditto

	bgNext []float64 // per-endpoint next background resample

	// Chaos state: the attached plan (kept for per-shard routing), the
	// compiled disruption schedule, and what is currently in force (see
	// ChaosPlan).
	chaosPlan    *ChaosPlan
	chaosEvents  []chaosEvent
	nextChaos    int
	epDown       []int // outage depth per endpoint (overlapping windows nest)
	activeWAN    []*WANFault
	activeStorms []*FaultStorm
	hazardMul    float64 // product of active storm factors

	retryQ []*xfer // aborted transfers waiting out their backoff

	now     float64
	nextID  int
	log     *logs.Log
	monitor Monitor

	stats      Stats
	violations []string // invariant violations observed during the run

	// cached per-interval snapshot for the monitor
	snapshot []EndpointLoad

	// ref is a test seam, nil in production: the reference event core
	// that the differential tests substitute at the three decision points
	// (see referenceCore).
	ref referenceCore

	// Solver scratch, reused across events.
	procsAt  []float64 // per-endpoint GridFTP process count, maintained incrementally
	compBuf  []*xfer   // per-event component transfer storage
	compRes  []int     // per-event component resource storage (BFS queue)
	compUsed []int     // per-scope used-resource list, first-touch order

	// Event-core state.
	xferHeap     indexedHeap // per-transfer deadline: phaseEnd or doneAt, keyed by xfer id
	bgHeap       indexedHeap // per-endpoint background resample, keyed by endpoint index
	chainHeap    indexedHeap // per-chain next start, keyed by chain index; absent while one is in flight
	minFault     float64     // min over active data-phase nextFault (redrawn each resolve)
	minRetryAt   float64     // min over retryQ retryAt
	actSeq       int
	waitSeq      int
	resDirty     []bool
	dirtyRes     []int
	epDirty      []bool
	dirtyEps     []int
	epWaiting    [][]waitEntry // per-endpoint waiting transfers (lazily compacted)
	epWaitDead   []int         // started-transfer tombstones per endpoint queue
	freedMark    []bool
	freedPending []int // endpoints with slots freed since the last waiting probe
	probeQs      [][]waitEntry
	probeEps     []int
	probePos     []int
	waitLive     int       // non-tombstoned entries in waiting
	wanList      []int     // WAN resource indices in creation order (deterministic iteration)
	utilMemo     []float64 // per-endpoint utilization, memoized per fault redraw
	utilStamp    []uint64
	utilRound    uint64

	// Observability instruments (see SetObs). All nil by default, and
	// every call on a nil instrument is a no-op costing one pointer
	// check, so the uninstrumented event loop is unchanged.
	m engineMetrics
}

// engineMetrics bundles the engine's instruments. The zero value (all
// nil) is the disabled state.
type engineMetrics struct {
	events       *obs.Counter   // event-loop iterations processed
	completed    *obs.Counter   // transfers completed into the log
	faults       *obs.Counter   // transient faults fired
	retries      *obs.Counter   // retry attempts scheduled
	abandoned    *obs.Counter   // transfers dropped after MaxRetries
	outageAborts *obs.Counter   // in-flight transfers aborted by outages
	outageStalls *obs.Counter   // in-flight transfers stalled by outages
	chaos        *obs.Counter   // chaos plan boundaries activated
	active       *obs.Gauge     // transfers currently active
	waiting      *obs.Gauge     // transfers queued on endpoint limits
	retryQ       *obs.Gauge     // transfers waiting out retry backoff
	queueDepth   *obs.Histogram // active+waiting depth, sampled per event
	components   *obs.Gauge     // resource-sharing components of a sharded run
}

// SetObs attaches the engine's metrics to a registry ("sim.*" names);
// a nil registry leaves the engine uninstrumented. Must be called
// before Run.
func (e *Engine) SetObs(reg *obs.Registry) {
	if reg == nil {
		e.m = engineMetrics{}
		return
	}
	e.m = engineMetrics{
		events:       reg.Counter("sim.events"),
		completed:    reg.Counter("sim.transfers_completed"),
		faults:       reg.Counter("sim.faults"),
		retries:      reg.Counter("sim.transfers_retried"),
		abandoned:    reg.Counter("sim.transfers_abandoned"),
		outageAborts: reg.Counter("sim.outage_aborts"),
		outageStalls: reg.Counter("sim.outage_stalls"),
		chaos:        reg.Counter("sim.chaos_activations"),
		active:       reg.Gauge("sim.active"),
		waiting:      reg.Gauge("sim.waiting"),
		retryQ:       reg.Gauge("sim.retrying"),
		queueDepth:   reg.Histogram("sim.queue_depth", obs.ExpBuckets(1, 2, 12)),
		components:   reg.Gauge("sim.components"),
	}
}

// Stats counts what the engine did beyond the log's view: every disruption,
// retry, and abandonment, whether or not a record resulted.
type Stats struct {
	Submitted    int // transfers submitted (incl. chain members)
	Completed    int // transfers that finished and were logged
	Faults       int // transient faults fired (sum of per-record Nflt)
	Retries      int // retry attempts scheduled after outage aborts
	Abandoned    int // transfers dropped after World.MaxRetries attempts
	OutageAborts int // in-flight transfers killed by an Abort outage
	OutageStalls int // in-flight transfers frozen by a non-Abort outage
}

// Stats returns the engine's run counters (valid after Run returns).
func (e *Engine) Stats() Stats { return e.stats }

// minRateFloor prevents deadlock when background load or contention
// momentarily exhausts a resource: every data-phase transfer trickles at
// least this rate (MB/s).
const minRateFloor = 0.01

// NewEngine creates an engine over the world with a deterministic RNG seed.
func NewEngine(w *World, seed int64) *Engine {
	e := &Engine{
		w:         w,
		seed:      seed,
		epRng:     make([]prng, len(w.Endpoints)),
		wanIdx:    make(map[string]int),
		wanSites:  make(map[int][2]string),
		epIdx:     make(map[string]int, len(w.Endpoints)),
		log:       logs.NewLog(),
		bgNext:    make([]float64, len(w.Endpoints)),
		epActive:  make([]int, len(w.Endpoints)),
		epDown:    make([]int, len(w.Endpoints)),
		hazardMul: 1,
	}
	for i, ep := range w.Endpoints {
		e.epIdx[ep.ID] = i
		e.epRng[i] = endpointStream(seed, ep.ID)
	}
	w.LogEndpoints(e.log)
	// Endpoint resources, 4 per endpoint, in endpoint order.
	for i, ep := range w.Endpoints {
		caps := [resKindsPerEndpoint]float64{ep.DiskReadMBps, ep.DiskWriteMBps, ep.NICMBps, ep.NICMBps}
		for k := 0; k < resKindsPerEndpoint; k++ {
			e.resources = append(e.resources, &resource{cap: caps[k], effCap: caps[k], epIdx: i, kind: k})
		}
		if ep.Bg.MaxFrac > 0 && ep.Bg.MeanInterval > 0 {
			e.bgNext[i] = e.expSample(i, ep.Bg.MeanInterval)
		} else {
			e.bgNext[i] = math.Inf(1)
		}
	}
	return e
}

// expSample draws the next background-resample delay for endpoint i from
// that endpoint's private stream.
func (e *Engine) expSample(i int, mean float64) float64 {
	return e.now + e.epRng[i].ExpFloat64()*mean
}

// Submit queues transfers for simulation. Must be called before Run.
func (e *Engine) Submit(specs ...TransferSpec) {
	e.pending = append(e.pending, specs...)
}

// chain is a closed-loop sequence: each transfer is submitted the moment
// its predecessor completes, keeping exactly one in flight.
type chain struct {
	specs     []TransferSpec
	next      int     // index of the next spec to start
	nextStart float64 // when to start it; +Inf while one is in flight
}

// SubmitChain queues a closed-loop chain of transfers: the first starts at
// its own Start time, each subsequent one starts when its predecessor
// completes (its Start field is ignored). Useful for "always-on" load
// generators such as §5.5.2's ten simultaneous load transfers.
func (e *Engine) SubmitChain(specs ...TransferSpec) {
	if len(specs) == 0 {
		return
	}
	e.chains = append(e.chains, &chain{specs: specs, nextStart: specs[0].Start})
}

func (e *Engine) epResource(epIdx, kind int) int {
	return epIdx*resKindsPerEndpoint + kind
}

func (e *Engine) wanResource(srcIdx, dstIdx int) int {
	a := e.w.Endpoints[srcIdx].Site
	b := e.w.Endpoints[dstIdx].Site
	key := a.Name + "|" + b.Name
	if idx, ok := e.wanIdx[key]; ok {
		return idx
	}
	idx := len(e.resources)
	// A WAN fault already in force must apply to lazily created paths too.
	c := e.w.WANCap(a, b)
	e.resources = append(e.resources, &resource{cap: c, effCap: c * e.wanFactor(a.Name, b.Name), epIdx: -1, kind: -1})
	e.wanIdx[key] = idx
	e.wanSites[idx] = [2]string{a.Name, b.Name}
	e.wanList = append(e.wanList, idx)
	return idx
}

// wanFactor returns the product of active WAN-fault capacity factors that
// apply to the path between two sites.
func (e *Engine) wanFactor(a, b string) float64 {
	f := 1.0
	for _, wf := range e.activeWAN {
		if wf.matches(a, b) {
			f *= wf.CapFactor
		}
	}
	return f
}

// refreshWANCaps reapplies the active WAN faults to every WAN resource.
func (e *Engine) refreshWANCaps() {
	for idx, sites := range e.wanSites {
		r := e.resources[idx]
		r.effCap = r.cap * e.wanFactor(sites[0], sites[1])
	}
}

// refreshHazard recomputes the storm multiplier on the fault hazard.
func (e *Engine) refreshHazard() {
	e.hazardMul = 1
	for _, s := range e.activeStorms {
		e.hazardMul *= s.HazardFactor
	}
}

// SetChaos attaches a disruption schedule to the engine. Must be called
// before Run; a nil or empty plan is a no-op.
func (e *Engine) SetChaos(p *ChaosPlan) error {
	if p.Empty() {
		return nil
	}
	if err := p.Validate(e.w); err != nil {
		return err
	}
	e.chaosPlan = p
	e.chaosEvents = p.compile()
	e.nextChaos = 0
	return nil
}

// DeadlockError reports an engine that has live transfers but no future
// event to make progress with. Its message carries a dump of engine state
// (clock, queues, the first few live transfers) so a stuck scenario can be
// diagnosed from the error alone.
type DeadlockError struct {
	State string // DebugState snapshot at detection time
}

func (d *DeadlockError) Error() string {
	return "simulate: deadlock: live transfers but no future event\n" + d.State
}

// Run simulates until every submitted transfer completes, returning the
// accumulated log. It returns an error when a spec references an unknown
// endpoint or is malformed.
func (e *Engine) Run() (*logs.Log, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run under a context: a long simulation stops promptly —
// between events, with the engine left in a consistent state — when ctx is
// cancelled or its deadline passes, returning the context's error.
func (e *Engine) RunContext(ctx context.Context) (*logs.Log, error) {
	// Start order, submission order among equal starts (Start compares as
	// cmp.Compare does); a shard's pending list arrives sorted.
	p := e.pending
	logs.SortRows(len(p),
		func(i int) logs.StartKey { return logs.StartKey{Ts: p[i].Start, Row: i} },
		func(i int) TransferSpec { return p[i] },
		func(i int, s TransferSpec) { p[i] = s })
	for i := range e.pending {
		if err := e.validate(&e.pending[i]); err != nil {
			return nil, err
		}
	}
	e.stats.Submitted = len(e.pending)
	for _, ch := range e.chains {
		for i := range ch.specs {
			if err := e.validate(&ch.specs[i]); err != nil {
				return nil, err
			}
		}
		e.stats.Submitted += len(ch.specs)
	}
	e.assignStamps()
	if e.shards > 1 && e.monitor == nil {
		if l, err, handled := e.runSharded(ctx); handled {
			return l, err
		}
	}
	e.initRun()
	e.log.Records = slices.Grow(e.log.Records, e.stats.Submitted)

	done := ctx.Done()
	for {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		if e.nextPending >= len(e.pending) && len(e.active) == 0 && e.waitingLen() == 0 &&
			len(e.retryQ) == 0 && e.chainsDone() {
			break // all work drained; ignore perpetual background events
		}
		// Background resamples never stop, so they cannot tell a wedged
		// run from a live one: only the work events can.
		tWork := e.workEventTime()
		if math.IsInf(tWork, 1) {
			if len(e.active) > 0 || e.waitingLen() > 0 || len(e.retryQ) > 0 {
				return nil, &DeadlockError{State: e.DebugState()}
			}
			break
		}
		tNext := e.nextEventTime(tWork)
		if e.monitor != nil && tNext > e.now {
			e.monitor.OnInterval(e.now, tNext, e.snapshot)
		}
		e.now = tNext
		e.processEvents()
		e.resolve()
		e.m.events.Inc()
		e.m.active.Set(float64(len(e.active)))
		e.m.waiting.Set(float64(e.waitingLen()))
		e.m.retryQ.Set(float64(len(e.retryQ)))
		e.m.queueDepth.Observe(float64(len(e.active) + e.waitingLen()))
	}
	e.log.SortByStart()
	return e.log, nil
}

// assignStamps gives every spec its global submission stamp: the pending
// list (already Start-sorted) first, then the chains in submission order.
// Stamps key the per-transfer RNG streams and become log record IDs, so
// they must be assigned over the FULL workload before any component
// partitioning — shard sub-engines receive pre-stamped specs and skip
// this (preStamped).
func (e *Engine) assignStamps() {
	if e.preStamped {
		return
	}
	n := 0
	for i := range e.pending {
		e.pending[i].stamp = n + 1
		n++
	}
	for _, ch := range e.chains {
		for i := range ch.specs {
			ch.specs[i].stamp = n + 1
			n++
		}
	}
}

// SetShards sets the engine's worker budget: with n > 1 and no monitor
// attached, RunContext partitions the workload by connected component of
// the resource-sharing graph and runs one sub-engine per component on
// min(n, components) internal/pool workers, merging their logs in one
// linear pass. The merged output is byte-identical to the serial engine
// whatever n is (DESIGN.md §12); a monitor forces the serial path because
// OnInterval observes the global clock. Must be called before Run.
func (e *Engine) SetShards(n int) { e.shards = n }

// referenceCore is the test seam for the reference event core: the
// linear-scan next-event time, from-scratch fair-share resolution and full
// FIFO waiting scan that the differential tests hold the production core
// to, byte for byte (DESIGN.md §9). It is nil in production; the
// implementation lives in refcore_test.go. The heap, dirty-set and
// waiting-queue bookkeeping runs either way, so the reference core can
// check it at every step. Sharded runs hand the same value to every
// sub-engine, so an implementation must keep no mutable state.
type referenceCore interface {
	workEventTime(e *Engine) float64
	resolve(e *Engine)
	startWaiting(e *Engine)
}

// initRun sizes the engine-owned scratch and seeds the event heaps from
// the initial schedule.
func (e *Engine) initRun() {
	nEp := len(e.w.Endpoints)
	e.minFault = math.Inf(1)
	e.minRetryAt = math.Inf(1)
	e.procsAt = make([]float64, nEp)
	e.utilMemo = make([]float64, nEp)
	e.utilStamp = make([]uint64, nEp)
	e.ensureResState()
	e.epDirty = make([]bool, nEp)
	e.freedMark = make([]bool, nEp)
	e.epWaiting = make([][]waitEntry, nEp)
	e.epWaitDead = make([]int, nEp)
	for i := range e.bgNext {
		e.bgHeap.update(i, e.bgNext[i])
	}
	for ci, ch := range e.chains {
		e.chainHeap.update(ci, ch.nextStart)
	}
}

// waitingLen is the number of live waiting transfers. Started entries are
// tombstoned and compacted lazily, so len(e.waiting) counts dead slots.
func (e *Engine) waitingLen() int { return e.waitLive }

// SetMonitor attaches a load monitor (may be nil).
func (e *Engine) SetMonitor(m Monitor) { e.monitor = m }

func (e *Engine) validate(s *TransferSpec) error {
	if _, err := e.w.Endpoint(s.Src); err != nil {
		return err
	}
	if _, err := e.w.Endpoint(s.Dst); err != nil {
		return err
	}
	if s.Bytes <= 0 {
		return fmt.Errorf("simulate: transfer %s->%s has non-positive bytes", s.Src, s.Dst)
	}
	if s.Files <= 0 || s.Conc <= 0 || s.Par <= 0 {
		return fmt.Errorf("simulate: transfer %s->%s needs positive files/conc/par", s.Src, s.Dst)
	}
	if s.Dirs < 0 {
		return fmt.Errorf("simulate: transfer %s->%s has negative dirs", s.Src, s.Dst)
	}
	return nil
}

// chainsDone reports whether every chain has started its last transfer.
func (e *Engine) chainsDone() bool {
	for _, ch := range e.chains {
		if ch.next < len(ch.specs) || !math.IsInf(ch.nextStart, 1) {
			return false
		}
	}
	return true
}

// nextEventTime returns the time of the earliest upcoming event, given
// the earliest work event: background resamples join here. Only the TIME
// is consumed — which sources fire at it is decided structurally by
// processEvents (the tie-break contract, DESIGN.md §9).
func (e *Engine) nextEventTime(tWork float64) float64 {
	t := math.Min(tWork, e.bgHeap.min())
	if t < e.now {
		if t < e.now-1e-6 {
			e.violate(fmt.Sprintf("clock regression: next event at %.9g before now=%.9g", t, e.now))
		}
		t = e.now
	}
	return t
}

// workEventTime returns the time of the earliest upcoming event that can
// move work forward: an arrival, chain start, transfer deadline, fault,
// chaos boundary or retry — every source but the background resamples.
func (e *Engine) workEventTime() float64 {
	if e.ref != nil {
		return e.ref.workEventTime(e)
	}
	return e.heapWorkEventTime()
}

// heapWorkEventTime reads the work sources from the indexed heaps:
// xferHeap keys are phaseEnd (setup/stall) or doneAt (data), chainHeap
// keys are nextStart; fault and retry minima are maintained as scalars
// (redrawFaults recomputes every fault deadline each resolve anyway, and
// the retry queue rebuilds its min whenever it drains).
func (e *Engine) heapWorkEventTime() float64 {
	t := math.Inf(1)
	if e.nextPending < len(e.pending) {
		t = e.pending[e.nextPending].Start
	}
	t = math.Min(t, e.chainHeap.min())
	t = math.Min(t, e.xferHeap.min())
	t = math.Min(t, e.minFault)
	if e.nextChaos < len(e.chaosEvents) {
		t = math.Min(t, e.chaosEvents[e.nextChaos].t)
	}
	t = math.Min(t, e.minRetryAt)
	return t
}

// maxViolations bounds the invariant-violation record so a systematically
// broken scenario cannot grow the list without bound.
const maxViolations = 32

// violate records an invariant violation observed during the run; the
// post-run CheckInvariants pass reports them.
func (e *Engine) violate(msg string) {
	if len(e.violations) < maxViolations {
		e.violations = append(e.violations, msg)
	}
}

const timeEps = 1e-9

// completeEpsMB is the residual payload below which a transfer counts as
// done (100 bytes). It must sit well above the float64 rounding residue of
// bytesMB −= rate·dt at large simulation times, or the event loop could
// chase an ever-smaller remainder that time resolution cannot represent.
const completeEpsMB = 1e-4

// processEvents handles every event due at the current time: chaos
// boundaries, arrivals, retries, phase transitions, faults, completions,
// background changes. The fixed block order below IS the tie-break rule
// for simultaneous events; a block is skipped only when its heap minimum
// proves no entry is due (which cannot change which entries fire).
func (e *Engine) processEvents() {
	// Chaos boundaries first: an outage lifting at this instant frees slots
	// for arrivals and retries processed below.
	e.processChaos()

	// Retries whose backoff has elapsed re-enter the queue.
	if len(e.retryQ) > 0 && e.minRetryAt <= e.now+timeEps {
		keep := e.retryQ[:0]
		min := math.Inf(1)
		for _, x := range e.retryQ {
			if x.retryAt <= e.now+timeEps {
				if e.hasSlot(x.srcIdx) && e.hasSlot(x.dstIdx) {
					e.start(x)
				} else {
					e.pushWaiting(x)
				}
			} else {
				keep = append(keep, x)
				if x.retryAt < min {
					min = x.retryAt
				}
			}
		}
		e.retryQ = keep
		e.minRetryAt = min
	}

	// Arrivals.
	for e.nextPending < len(e.pending) && e.pending[e.nextPending].Start <= e.now+timeEps {
		e.admit(e.pending[e.nextPending], 0)
		e.nextPending++
	}
	// Chain arrivals. A due chain admits its next spec, if any, and leaves
	// the heap until a completion or abandonment schedules it again.
	if e.chainHeap.min() <= e.now+timeEps {
		for ci, ch := range e.chains {
			if ch.nextStart > e.now+timeEps {
				continue
			}
			if ch.next < len(ch.specs) {
				e.admit(ch.specs[ch.next], ci+1)
				ch.next++
			}
			ch.nextStart = math.Inf(1)
			e.chainHeap.remove(ci)
		}
	}

	// Background level changes. Each endpoint draws from its own stream,
	// so the visit order only matters per endpoint.
	if e.bgHeap.min() <= e.now+timeEps {
		for i, ep := range e.w.Endpoints {
			if e.bgNext[i] <= e.now+timeEps {
				e.resampleBg(i, ep)
				e.bgNext[i] = e.expSample(i, ep.Bg.MeanInterval)
				e.bgHeap.update(i, e.bgNext[i])
			}
		}
	}

	// Phase transitions, faults, completions.
	freed := false
	keep := e.active[:0]
	for _, x := range e.active {
		switch x.phase {
		case phaseSetup, phaseStall:
			if x.phaseEnd <= e.now+timeEps {
				e.enterData(x)
			}
			keep = append(keep, x)
		case phaseData:
			switch {
			case x.doneAt <= e.now+timeEps:
				e.advancePayload(x)
				if x.bytesMB <= completeEpsMB {
					e.leaveData(x)
					e.complete(x)
					e.releaseSlots(x)
					freed = true
					// dropped from active
				} else {
					// Residual payload above completeEpsMB at the stored
					// deadline (float rounding): reschedule at the rate in
					// force.
					x.doneAt = e.now + x.bytesMB/x.rate
					e.xferHeap.update(x.id, x.doneAt)
					keep = append(keep, x)
				}
			case x.nextFault <= e.now+timeEps:
				e.advancePayload(x)
				x.faults++
				e.stats.Faults++
				e.m.faults.Inc()
				e.leaveData(x)
				x.phase = phaseStall
				x.phaseEnd = e.now + e.w.FaultRetry
				x.nextFault = math.Inf(1)
				e.xferHeap.update(x.id, x.phaseEnd)
				keep = append(keep, x)
			default:
				keep = append(keep, x)
			}
		}
	}
	e.active = keep
	if freed {
		e.startWaiting()
	}
}

// advancePayload brings a data-phase transfer's remaining payload up to
// the current time at the rate in force. Payload advances lazily, only
// at the transfer's own events (deadline, fault, outage) and at rate
// changes (commitScope) — never at foreign events — so its float
// trajectory is chopped at exactly the same points whether the
// transfer's component runs in the full engine or in a shard.
func (e *Engine) advancePayload(x *xfer) {
	if dt := e.now - x.lastAdv; dt > 0 {
		x.bytesMB -= x.rate * dt
		if x.bytesMB < 0 {
			x.bytesMB = 0
		}
	}
	x.lastAdv = e.now
}

// processChaos applies every plan boundary due at the current time.
func (e *Engine) processChaos() {
	changedWAN, changedStorm, freed := false, false, false
	for e.nextChaos < len(e.chaosEvents) && e.chaosEvents[e.nextChaos].t <= e.now+timeEps {
		ev := &e.chaosEvents[e.nextChaos]
		e.nextChaos++
		e.m.chaos.Inc()
		switch ev.kind {
		case ceOutageStart:
			e.beginOutage(ev.outage)
			freed = true // aborts release their partner endpoints' slots
		case ceOutageEnd:
			idx := e.epIndex(ev.outage.EndpointID)
			e.epDown[idx]--
			e.markFreed(idx)
			freed = true
		case ceWANStart:
			e.activeWAN = append(e.activeWAN, ev.wan)
			changedWAN = true
		case ceWANEnd:
			e.activeWAN = removeWAN(e.activeWAN, ev.wan)
			changedWAN = true
		case ceStormStart:
			e.activeStorms = append(e.activeStorms, ev.storm)
			changedStorm = true
		case ceStormEnd:
			e.activeStorms = removeStorm(e.activeStorms, ev.storm)
			changedStorm = true
		}
	}
	if changedWAN {
		e.refreshWANCaps()
		// Every WAN capacity may have moved; re-solve their components.
		for _, ri := range e.wanList {
			e.dirtyResource(ri)
		}
	}
	if changedStorm {
		e.refreshHazard() // feeds redrawFaults; no rates touched
	}
	if freed {
		e.startWaiting()
	}
}

func removeWAN(s []*WANFault, f *WANFault) []*WANFault {
	for i, v := range s {
		if v == f {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeStorm(s []*FaultStorm, f *FaultStorm) []*FaultStorm {
	for i, v := range s {
		if v == f {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// beginOutage takes an endpoint down. In-flight transfers touching it
// either abort into the retry queue (Abort) or freeze until the window
// lifts; either way no new transfer starts there while it is down.
func (e *Engine) beginOutage(o *OutageEvent) {
	idx := e.epIndex(o.EndpointID)
	e.epDown[idx]++
	keep := e.active[:0]
	for _, x := range e.active {
		if x.srcIdx != idx && x.dstIdx != idx {
			keep = append(keep, x)
			continue
		}
		if o.Abort {
			e.stats.OutageAborts++
			e.m.outageAborts.Inc()
			if x.phase == phaseData {
				e.advancePayload(x)
				e.leaveData(x)
			}
			e.releaseSlots(x)
			e.scheduleRetry(x)
			continue // dropped from active
		}
		e.stats.OutageStalls++
		e.m.outageStalls.Inc()
		if x.phase == phaseData {
			e.advancePayload(x)
			e.leaveData(x)
		}
		x.phase = phaseStall
		if x.phaseEnd < o.End {
			x.phaseEnd = o.End
		}
		x.nextFault = math.Inf(1)
		e.xferHeap.update(x.id, x.phaseEnd)
		keep = append(keep, x)
	}
	e.active = keep
}

// scheduleRetry re-queues an aborted transfer with exponential backoff and
// jitter, preserving moved payload (Globus-style checkpoint restart) but
// paying the setup overhead again on the next attempt. Transfers that
// exhaust World.MaxRetries are abandoned.
func (e *Engine) scheduleRetry(x *xfer) {
	x.retries++
	x.rate = 0
	x.nextFault = math.Inf(1)
	if e.w.MaxRetries > 0 && x.retries > e.w.MaxRetries {
		e.stats.Abandoned++
		e.m.abandoned.Inc()
		// Keep chained load generators alive: an abandoned link schedules
		// its successor just as a completion would.
		if x.chainID > 0 {
			ch := e.chains[x.chainID-1]
			if ch.next < len(ch.specs) {
				e.setChainNext(ch, x.chainID-1, e.now)
			}
		}
		return
	}
	e.stats.Retries++
	e.m.retries.Inc()
	backoff := e.w.RetryBackoffBase * math.Pow(2, float64(x.retries-1))
	if backoff > e.w.RetryBackoffMax && e.w.RetryBackoffMax > 0 {
		backoff = e.w.RetryBackoffMax
	}
	if j := e.w.RetryJitter; j > 0 {
		backoff *= 1 + j*(2*x.rs.Float64()-1)
	}
	if backoff < 0 {
		backoff = 0
	}
	x.retryAt = e.now + backoff
	e.retryQ = append(e.retryQ, x)
	if x.retryAt < e.minRetryAt {
		e.minRetryAt = x.retryAt
	}
}

// setChainNext schedules a chain's next start, putting the chain back
// into the chain heap.
func (e *Engine) setChainNext(ch *chain, ci int, t float64) {
	ch.nextStart = t
	e.chainHeap.update(ci, t)
}

// startWaiting starts queued transfers, in FIFO order, whose endpoints now
// have free slots. It probes only the per-endpoint queues of endpoints
// that freed a slot since the last probe (every other waiting transfer
// still has at least one blocked endpoint, so a full FIFO scan could not
// have started it).
func (e *Engine) startWaiting() {
	if e.ref != nil {
		e.ref.startWaiting(e)
		return
	}
	e.startWaitingIndexed()
}

// pushWaiting appends a transfer to the FIFO waiting queue and to the
// per-endpoint queues used by startWaitingIndexed.
func (e *Engine) pushWaiting(x *xfer) {
	x.inWaiting = true
	x.waitSeq = e.waitSeq
	e.waitSeq++
	e.waiting = append(e.waiting, x)
	e.waitLive++
	en := waitEntry{x, x.waitSeq}
	e.epWaiting[x.srcIdx] = append(e.epWaiting[x.srcIdx], en)
	if x.dstIdx != x.srcIdx {
		e.epWaiting[x.dstIdx] = append(e.epWaiting[x.dstIdx], en)
	}
}

// hasSlot reports whether the endpoint can run one more transfer: it must
// be up and below its concurrent-transfer cap.
func (e *Engine) hasSlot(epIdx int) bool {
	if e.epDown[epIdx] > 0 {
		return false
	}
	limit := e.w.Endpoints[epIdx].MaxActive
	return limit <= 0 || e.epActive[epIdx] < limit
}

// start activates an admitted transfer: it occupies endpoint slots and
// begins its setup phase. The logged start time is the first activation
// time, preserved across outage-driven retries.
func (e *Engine) start(x *xfer) {
	e.epActive[x.srcIdx]++
	e.epActive[x.dstIdx]++
	e.procsAt[x.srcIdx] += float64(x.procs)
	if x.dstIdx != x.srcIdx {
		e.procsAt[x.dstIdx] += float64(x.procs)
	}
	if !x.started {
		x.startedAt = e.now
		x.started = true
	}
	x.phase = phaseSetup
	x.phaseEnd = e.now + x.overhead
	x.actSeq = e.actSeq
	e.actSeq++
	e.active = append(e.active, x)
	e.dirtyProcs(x.srcIdx)
	e.dirtyProcs(x.dstIdx)
	e.xferHeap.update(x.id, x.phaseEnd)
}

// releaseSlots returns a departing transfer's endpoint slots and processes
// (completion or outage abort), drops its heap entry, dirties the
// CPU-contention state, and flags its endpoints for the next waiting-queue
// probe.
func (e *Engine) releaseSlots(x *xfer) {
	e.epActive[x.srcIdx]--
	e.epActive[x.dstIdx]--
	e.procsAt[x.srcIdx] -= float64(x.procs)
	if x.dstIdx != x.srcIdx {
		e.procsAt[x.dstIdx] -= float64(x.procs)
	}
	e.dirtyProcs(x.srcIdx)
	e.dirtyProcs(x.dstIdx)
	e.xferHeap.remove(x.id)
	e.markFreed(x.srcIdx)
	e.markFreed(x.dstIdx)
}

// enterData moves a transfer from setup/stall into the data phase: it
// joins the sharing graph and dirties its resources so the next resolve
// re-solves its component. The completion deadline is recomputed at that
// resolve (needDeadline).
func (e *Engine) enterData(x *xfer) {
	x.phase = phaseData
	x.needDeadline = true
	x.needFault = true
	x.lastAdv = e.now
	for k, ri := range x.resIdx {
		r := e.resources[ri]
		x.memberPos[k] = len(r.members)
		r.members = append(r.members, x)
		e.dirtyResource(ri)
	}
}

// leaveData removes a data-phase transfer from the sharing graph (swap-
// remove against each resource's member list) and dirties its resources.
// Callers must ensure x is in the data phase.
func (e *Engine) leaveData(x *xfer) {
	for k, ri := range x.resIdx {
		r := e.resources[ri]
		p := x.memberPos[k]
		last := len(r.members) - 1
		if p < last {
			moved := r.members[last]
			r.members[p] = moved
			for mk, mri := range moved.resIdx {
				if mri == ri {
					moved.memberPos[mk] = p
					break
				}
			}
		}
		r.members = r.members[:last]
		e.dirtyResource(ri)
	}
}

// admit turns a spec into an active transfer in its setup phase; chainID is
// 1+the chain index for chained transfers, 0 otherwise.
func (e *Engine) admit(s TransferSpec, chainID int) {
	src, _ := e.w.Endpoint(s.Src)
	dst, _ := e.w.Endpoint(s.Dst)
	srcIdx := e.epIndex(s.Src)
	dstIdx := e.epIndex(s.Dst)

	procs := s.Conc
	if s.Files < procs {
		procs = s.Files
	}
	streams := float64(procs * s.Par)

	x := &xfer{
		id:        e.nextID,
		stamp:     s.stamp - 1,
		rs:        transferStream(e.seed, s.stamp-1),
		spec:      s,
		srcIdx:    srcIdx,
		dstIdx:    dstIdx,
		procs:     procs,
		weight:    streams,
		phase:     phaseSetup,
		bytesMB:   s.Bytes / 1e6,
		rateEff:   1,
		chainID:   chainID,
		nextFault: math.Inf(1),
	}
	if e.w.JitterSigma > 0 {
		x.rateEff = 1 - math.Abs(x.rs.NormFloat64())*e.w.JitterSigma
		if x.rateEff < 0.85 {
			x.rateEff = 0.85
		}
	}
	e.nextID++

	// Demand ceiling: TCP stream windows and per-process disk bandwidth,
	// the latter discounted by the per-file gap (see World.PerFileGap).
	demand := math.Inf(1)
	if !s.SkipNetwork && srcIdx != dstIdx {
		demand = math.Min(demand, streams*e.w.PerStreamMBps(src.Site, dst.Site))
	}
	avgFileMB := s.Bytes / 1e6 / float64(s.Files)
	perProc := func(diskMBps float64) float64 {
		if e.w.PerFileGap <= 0 {
			return diskMBps
		}
		return avgFileMB / (e.w.PerFileGap + avgFileMB/diskMBps)
	}
	if !s.SkipSrcDisk {
		demand = math.Min(demand, float64(procs)*perProc(src.PerProcDiskMBps))
	}
	if !s.SkipDstDisk {
		demand = math.Min(demand, float64(procs)*perProc(dst.PerProcDiskMBps))
	}
	// Resource set.
	if !s.SkipSrcDisk {
		x.resIdx = append(x.resIdx, e.epResource(srcIdx, resDiskRead))
	}
	if !s.SkipDstDisk {
		x.resIdx = append(x.resIdx, e.epResource(dstIdx, resDiskWrite))
	}
	usesNet := !s.SkipNetwork && srcIdx != dstIdx
	if usesNet {
		x.resIdx = append(x.resIdx,
			e.epResource(srcIdx, resNetOut),
			e.epResource(dstIdx, resNetIn),
			e.wanResource(srcIdx, dstIdx))
	}

	// End-to-end disk↔network pipelining penalty (see World.E2EEfficiency):
	// a disk-to-disk transfer cannot sustain more than a fraction of its
	// static bottleneck capacity even when running alone.
	usesDisk := !s.SkipSrcDisk || !s.SkipDstDisk
	if usesNet && usesDisk && e.w.E2EEfficiency > 0 && e.w.E2EEfficiency < 1 {
		staticMin := math.Inf(1)
		for _, ri := range x.resIdx {
			staticMin = math.Min(staticMin, e.resources[ri].cap)
		}
		demand = math.Min(demand, e.w.E2EEfficiency*staticMin)
	}
	x.demand = demand

	// Startup + coordination overhead (§4.2).
	x.overhead = e.w.SetupTime +
		float64(s.Files)*e.w.PerFileCost/float64(procs) +
		float64(s.Dirs)*e.w.PerDirCost

	if e.hasSlot(srcIdx) && e.hasSlot(dstIdx) {
		e.start(x)
	} else {
		e.pushWaiting(x)
	}
}

func (e *Engine) epIndex(id string) int {
	if i, ok := e.epIdx[id]; ok {
		return i
	}
	return -1
}

// resampleBg draws a new background level for every resource of endpoint i.
// Squaring the uniform sample skews levels low, with occasional heavy
// interference — matching the bursty non-Globus activity of §4.3.2.
func (e *Engine) resampleBg(i int, ep *Endpoint) {
	for k := 0; k < resKindsPerEndpoint; k++ {
		ri := e.epResource(i, k)
		r := e.resources[ri]
		u := e.epRng[i].Float64()
		r.bgFrac = ep.Bg.MaxFrac * u * u
		e.dirtyResource(ri)
	}
}

// complete logs the finished transfer and, for chained transfers, schedules
// the chain's next one.
func (e *Engine) complete(x *xfer) {
	if x.chainID > 0 {
		ch := e.chains[x.chainID-1]
		if ch.next < len(ch.specs) {
			e.setChainNext(ch, x.chainID-1, e.now)
		}
	}
	e.stats.Completed++
	e.m.completed.Inc()
	e.log.Append(logs.Record{
		ID:      x.stamp,
		Src:     x.spec.Src,
		Dst:     x.spec.Dst,
		Ts:      x.startedAt,
		Te:      e.now,
		Bytes:   x.spec.Bytes,
		Files:   x.spec.Files,
		Dirs:    x.spec.Dirs,
		Conc:    x.spec.Conc,
		Par:     x.spec.Par,
		Faults:  x.faults,
		Retries: x.retries,
	})
}

// resolve recomputes data-phase transfer rates via weighted progressive
// filling (weighted max-min fairness with per-transfer demand ceilings),
// then refreshes fault schedules and the monitor snapshot. It solves one
// resource-sharing component at a time, over the component's transfers in
// activation order — components are disjoint, so the solve is float-exact
// regardless of which other components are (re)solved — which is what lets
// the incremental resolver (incResolve) re-solve only dirty components and
// still match a from-scratch solve bit for bit.
func (e *Engine) resolve() {
	if e.ref != nil {
		e.ref.resolve(e)
		return
	}
	e.incResolve()
}

// initScope prepares one solver scope: stashes each transfer's previous
// rate (for the stable-deadline rule in commitScope), zeroes working
// rates, and initializes the scope's resources in first-touch order,
// appending them to used. xs must be in activation order.
func (e *Engine) initScope(xs []*xfer, used []int) []int {
	for _, x := range xs {
		x.prevRate = x.rate
		x.rate = 0
		x.frozen = false
		for _, ri := range x.resIdx {
			r := e.resources[ri]
			if !r.touched {
				r.touched = true
				r.remain = r.effCap * (1 - r.bgFrac)
				r.sumW = 0
				used = append(used, ri)
			}
			r.sumW += x.weight
		}
	}
	return used
}

// solveScope runs weighted progressive filling over one initialized scope,
// leaving raw (pre-jitter, pre-floor) rates on the transfers and resetting
// the resources' touched marks.
func (e *Engine) solveScope(data []*xfer, used []int) {
	unfrozen := len(data)
	maxIter := len(data) + len(used) + 4
	for iter := 0; unfrozen > 0 && iter < maxIter; iter++ {
		delta := math.Inf(1)
		for _, ri := range used {
			r := e.resources[ri]
			if r.sumW > 0 {
				delta = math.Min(delta, r.remain/r.sumW)
			}
		}
		for _, x := range data {
			if !x.frozen && x.weight > 0 {
				delta = math.Min(delta, (x.demand-x.rate)/x.weight)
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		for _, x := range data {
			if x.frozen {
				continue
			}
			inc := x.weight * delta
			x.rate += inc
			for _, ri := range x.resIdx {
				e.resources[ri].remain = math.Max(0, e.resources[ri].remain-inc)
			}
		}
		progressed := false
		// Freeze transfers that met their demand.
		for _, x := range data {
			if !x.frozen && x.rate >= x.demand-1e-9 {
				e.freeze(x)
				unfrozen--
				progressed = true
			}
		}
		// Freeze users of exhausted resources.
		for _, ri := range used {
			r := e.resources[ri]
			if r.sumW > 0 && r.remain <= 1e-9 {
				for _, x := range data {
					if !x.frozen && usesResource(x, ri) {
						e.freeze(x)
						unfrozen--
						progressed = true
					}
				}
			}
		}
		if !progressed {
			// Numerical stall: freeze everything at current rates.
			for _, x := range data {
				if !x.frozen {
					e.freeze(x)
					unfrozen--
				}
			}
		}
	}
	for _, ri := range used {
		e.resources[ri].touched = false
	}
}

// commitScope finalizes one solved scope: applies per-transfer jitter and
// the anti-deadlock floor, accumulates per-resource load and membership
// (the scope's resources must have been zeroed by the caller), refreshes
// completion deadlines where the rate changed, and checks capacity
// conservation.
func (e *Engine) commitScope(data []*xfer, used []int) {
	for _, x := range data {
		if x.rate < 0 {
			e.violate(fmt.Sprintf("negative rate %.6g for transfer %d at t=%.1f", x.rate, x.id, e.now))
			x.rate = 0
		}
		x.rate *= x.rateEff
		if x.rate < minRateFloor {
			x.rate = minRateFloor
		}
		for _, ri := range x.resIdx {
			e.resLoad[ri] += x.rate
			e.resMembers[ri]++
		}
		// Stable completion deadline: recompute only when the resolved
		// rate moved or the transfer (re-)entered the data phase, so a
		// component left untouched by the incremental resolver keeps the
		// exact deadline a from-scratch solve re-derives. The payload
		// advances to now at the outgoing rate first — these are exactly
		// the rate-change points of the transfer's own component, so the
		// bytesMB float trajectory is shard-invariant (see advancePayload).
		if x.needDeadline || x.rate != x.prevRate {
			x.needDeadline = false
			if dt := e.now - x.lastAdv; dt > 0 {
				x.bytesMB -= x.prevRate * dt
				if x.bytesMB < 0 {
					x.bytesMB = 0
				}
			}
			x.lastAdv = e.now
			x.doneAt = e.now + x.bytesMB/x.rate
			e.xferHeap.update(x.id, x.doneAt)
		}
	}
	// Capacity conservation: the fair-share solver must never hand a
	// resource more than its effective capacity net of background load,
	// modulo the anti-deadlock rate floor each member is entitled to.
	for _, ri := range used {
		r := e.resources[ri]
		budget := r.effCap*(1-r.bgFrac) + float64(e.resMembers[ri])*minRateFloor + 1e-6
		if e.resLoad[ri] > budget {
			e.violate(fmt.Sprintf("capacity overcommit on resource %d: load %.6g > budget %.6g at t=%.1f",
				ri, e.resLoad[ri], budget, e.now))
		}
	}
}

// redrawFaults refreshes fault deadlines for active data-phase transfers
// and recomputes the scalar fault minimum for heapWorkEventTime. A
// transfer draws from its private stream only when its hazard actually
// moved since the last draw (or it just entered the data phase); an
// unchanged hazard keeps the standing deadline, which by exponential
// memorylessness is distributionally identical to redrawing. The gate
// also makes draw points component-local: the hazard is a function of
// the transfer's own endpoints' utilization and the broadcast storm
// multiplier, so a shard redraws at exactly the serial engine's times.
// incResolve skips the call when World.FaultBaseHazard is zero: no
// transfer can ever have a finite deadline then.
func (e *Engine) redrawFaults() {
	e.minFault = math.Inf(1)
	e.utilRound++
	for _, x := range e.active {
		if x.phase != phaseData {
			continue
		}
		// Fault hazard grows quadratically with endpoint utilization,
		// scaled up fabric-wide while a fault storm is in force.
		util := math.Max(e.utilizationMemo(x.srcIdx), e.utilizationMemo(x.dstIdx))
		h := e.w.FaultBaseHazard * e.hazardMul * util * util
		if x.needFault || h != x.lastHaz {
			x.needFault = false
			x.lastHaz = h
			if h > 0 {
				x.nextFault = e.now + x.rs.ExpFloat64()/h
			} else {
				x.nextFault = math.Inf(1)
			}
		}
		if x.nextFault < e.minFault {
			e.minFault = x.nextFault
		}
	}
}

func (e *Engine) freeze(x *xfer) {
	x.frozen = true
	for _, ri := range x.resIdx {
		e.resources[ri].sumW -= x.weight
	}
}

func usesResource(x *xfer, ri int) bool {
	for _, r := range x.resIdx {
		if r == ri {
			return true
		}
	}
	return false
}

// utilizationMemo caches utilization per endpoint for the duration of one
// redrawFaults call (many data transfers share endpoints). Utilization is a
// pure function of the current resource loads and capacities, so the cached
// value is bitwise what a fresh computation would return.
func (e *Engine) utilizationMemo(epIdx int) float64 {
	if e.utilStamp[epIdx] == e.utilRound {
		return e.utilMemo[epIdx]
	}
	u := e.utilization(epIdx)
	e.utilStamp[epIdx] = e.utilRound
	e.utilMemo[epIdx] = u
	return u
}

// utilization returns the busiest-resource fraction at an endpoint,
// counting both transfer allocations and background load.
func (e *Engine) utilization(epIdx int) float64 {
	var worst float64
	for k := 0; k < resKindsPerEndpoint; k++ {
		ri := e.epResource(epIdx, k)
		r := e.resources[ri]
		if r.effCap <= 0 {
			continue
		}
		u := (r.bgFrac*r.effCap + e.resLoad[ri]) / r.effCap
		if u > worst {
			worst = u
		}
	}
	if worst > 1 {
		worst = 1
	}
	return worst
}

// refreshSnapshot rebuilds the per-endpoint true-load view for the monitor.
func (e *Engine) refreshSnapshot(procsAt []float64) {
	e.snapshot = e.snapshot[:0]
	for i, ep := range e.w.Endpoints {
		rd := e.resources[e.epResource(i, resDiskRead)]
		wr := e.resources[e.epResource(i, resDiskWrite)]
		load := EndpointLoad{
			EndpointID:  ep.ID,
			BgReadMBps:  rd.bgFrac * rd.effCap,
			BgWriteMBps: wr.bgFrac * wr.effCap,
			Procs:       int(procsAt[i]),
			CPUEff:      ep.cpuEff(procsAt[i]),
		}
		load.DiskReadMBps = load.BgReadMBps + e.resLoad[e.epResource(i, resDiskRead)]
		load.DiskWriteMBps = load.BgWriteMBps + e.resLoad[e.epResource(i, resDiskWrite)]
		e.snapshot = append(e.snapshot, load)
	}
}

// DebugState renders a snapshot of engine progress for diagnosing stalls:
// current time, queue depths, endpoints currently down, the invariant
// violations recorded so far, and the first few live transfers from each
// queue.
func (e *Engine) DebugState() string {
	s := fmt.Sprintf("now=%.1f pending=%d/%d active=%d waiting=%d retrying=%d logged=%d abandoned=%d\n",
		e.now, e.nextPending, len(e.pending), len(e.active), e.waitingLen(), len(e.retryQ),
		len(e.log.Records), e.stats.Abandoned)
	for i, down := range e.epDown {
		if down > 0 {
			s += fmt.Sprintf("  endpoint %s DOWN (depth %d)\n", e.w.Endpoints[i].ID, down)
		}
	}
	for _, v := range e.violations {
		s += "  violation: " + v + "\n"
	}
	dump := func(label string, xs []*xfer) string {
		out := ""
		for i, x := range xs {
			if i >= 10 {
				out += "  ...\n"
				break
			}
			out += fmt.Sprintf("  %s x%d %s->%s phase=%d bytesMB=%.3f rate=%.4f demand=%.2f phaseEnd=%.1f nextFault=%.1f retries=%d\n",
				label, x.id, x.spec.Src, x.spec.Dst, x.phase, x.bytesMB, x.rate, x.demand, x.phaseEnd, x.nextFault, x.retries)
		}
		return out
	}
	s += dump("active", e.active)
	// Started entries stay in e.waiting as tombstones; show only live ones.
	var wait []*xfer
	for _, x := range e.waiting {
		if x.inWaiting {
			wait = append(wait, x)
		}
	}
	s += dump("waiting", wait)
	s += dump("retry", e.retryQ)
	return s
}
