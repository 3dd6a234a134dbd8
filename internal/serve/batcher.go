package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ml/gbt"
)

// The handoff machinery behind the front door. One admitted unit of work
// is a job — n rows sharing an admission snapshot, an enqueue timestamp,
// and ONE completion notification, whether it came from /predict (n=1),
// /predict/batch, PredictSync (n=1) or PredictBatchSync. Jobs are
// sync.Pool-recycled completion slots: the waiter checks one out, fills
// the row slabs, and hands it to a per-batcher admission shard; the
// batcher that drains the shard coalesces jobs up to BatchMax rows, runs
// ONE inference over the gathered rows, publishes every result, and
// wakes each job with a single channel send — one wake per job per
// drained batch, never one per row. The waiter alone recycles the job
// (an abandoned job — client deadline, drain hard-stop — is left to the
// GC, because the batcher may still be writing into it).

// job is one admitted unit of work.
type job struct {
	n  int       // rows
	x  []float64 // n*nf row-major slab, vectorized against areg's layout
	cx []uint8   // n*nf bin codes when qm != nil

	// qm is the code-space model cx was quantized against — non-nil only
	// when every row resolved to that one model at admission (the
	// all-or-nothing code-admission rule). A reload between admission and
	// batching invalidates it exactly like it invalidates x (see
	// refreshJob).
	qm *gbt.Model

	srcs, dsts []string
	areg       *Registry // admission snapshot (layout + generation of x)
	enq        time.Time

	// Results, written by the batcher before the done send.
	out      []float64    // per-row rate
	ents     []*edgeEntry // per-row serving entry (label, latency key)
	gen      int64
	queueMS  float64
	shed     bool // whole job shed on queue-wait timeout
	err      error
	notified bool // batcher-local: done send already issued

	done chan struct{} // buffered(1); the batcher notifies exactly once
}

var jobPool = sync.Pool{
	New: func() any { return &job{done: make(chan struct{}, 1)} },
}

// grow returns s resized to n, reusing its backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// newJob checks a job for n rows of nf features out of the pool.
func newJob(n, nf int) *job {
	j := jobPool.Get().(*job)
	j.n = n
	j.x = grow(j.x, n*nf)
	j.cx = grow(j.cx, n*nf)
	j.out = grow(j.out, n)
	j.srcs = grow(j.srcs, n)
	j.dsts = grow(j.dsts, n)
	j.ents = grow(j.ents, n)
	j.qm = nil
	j.shed, j.err, j.notified = false, nil, false
	return j
}

// free recycles a job whose result has been consumed (or that was never
// enqueued). Registry-retaining fields are cleared so a pooled job does
// not pin an old generation's models in memory.
func (j *job) free() {
	j.areg, j.qm = nil, nil
	for i := range j.ents {
		j.ents[i] = nil
	}
	jobPool.Put(j)
}

// notify publishes the job's results to its waiter.
func (j *job) notify() {
	j.notified = true
	j.done <- struct{}{}
}

// quantizeJob resolves each row's serving model against the admission
// snapshot and, when every row lands on the same code-space model,
// quantizes the whole slab column-major in one pass. Mixed-model jobs
// (and models without a code forest) ride the float path — bit-identical
// by construction, so this is purely a speed decision.
func (s *Server) quantizeJob(j *job, snap *Registry) {
	j.areg = snap
	single := true
	var first *edgeEntry
	// Memoize the previous row's (src, dst): batch rows overwhelmingly
	// share an edge, and with interned labels the equality checks are
	// pointer comparisons — two map hits become two pointer tests.
	var psrc, pdst string
	var pent *edgeEntry
	for r := 0; r < j.n; r++ {
		e := pent
		if e == nil || j.srcs[r] != psrc || j.dsts[r] != pdst {
			e = snap.lookupEntry(j.srcs[r], j.dsts[r])
			psrc, pdst, pent = j.srcs[r], j.dsts[r], e
		}
		j.ents[r] = e
		if first == nil {
			first = e
		} else if e.m != first.m {
			single = false
		}
	}
	j.qm = nil
	if single && first.m.CodeSpace() {
		k := j.n * len(snap.Features)
		if first.m.QuantizeSlab(j.x[:k], j.cx[:k]) == nil {
			j.qm = first.m
		}
	}
}

// shardScratch is one batcher's reusable working storage, so a steady
// flow of jobs batches with zero per-batch allocation.
type shardScratch struct {
	jobs []*job
	xs   [][]float64 // gathered row views, float path
	cx   []uint8     // gathered code slab, multi-job dense path
	out  []float64
	cm   []int     // refresh column remap
	rx   []float64 // refresh slab
}

// batcherLoop drains one admission shard. The first job of a batch is
// taken blocking; more are coalesced nonblocking until the gathered rows
// reach BatchMax — under singleton load batches fill with many one-row
// jobs and amortize inference, while an idle daemon answers a lone
// request immediately instead of waiting for company.
func (s *Server) batcherLoop(shard chan *job) {
	sc := &shardScratch{jobs: make([]*job, 0, s.cfg.BatchMax)}
	for {
		var j *job
		select {
		case <-s.stop:
			return
		case j = <-shard:
		}
		sc.jobs = append(sc.jobs[:0], j)
		rows := j.n
		for rows < s.cfg.BatchMax {
			select {
			case q := <-shard:
				sc.jobs = append(sc.jobs, q)
				rows += q.n
			default:
				goto full
			}
		}
	full:
		s.mQueueDepth.Set(float64(s.queueLen()))
		s.runJobs(sc)
	}
}

// runJobs answers every gathered job exactly once. The whole batch runs
// against one registry snapshot taken here: a reload promoted after this
// line is picked up by the next batch, and the old snapshot stays valid
// (immutable, atomically swapped) for as long as this batch needs it —
// the mechanism behind zero dropped requests across reloads.
//
// Panic isolation: a panicking model (or a pool.PanicError rethrown by
// the parallel predictor) is recovered here and converted into an error
// answer for the jobs not yet notified; the batcher survives.
func (s *Server) runJobs(sc *shardScratch) {
	jobs := sc.jobs
	defer func() {
		if v := recover(); v != nil {
			s.cfg.Logf("serve: batch panic: %v", v)
			for _, j := range jobs {
				if !j.notified {
					j.err = fmt.Errorf("batch panic: %v", v)
					j.notify()
				}
			}
		}
	}()

	snap := s.reg.Load()
	nf := len(snap.Features)
	now := time.Now()
	s.mBatches.Inc()

	// Per-job admission bookkeeping: shed the stale, refresh jobs
	// admitted under an older generation.
	live := 0
	liveJobs := 0
	var lone *job
	for _, j := range jobs {
		j.gen = snap.Generation
		wait := now.Sub(j.enq)
		j.queueMS = float64(wait) / float64(time.Millisecond)
		s.mQueueWait.Observe(j.queueMS)
		if wait > s.cfg.QueueTimeout {
			j.shed = true
			continue
		}
		if j.areg != snap {
			s.refreshJob(sc, j, snap)
		}
		live += j.n
		liveJobs++
		lone = j
	}
	s.mBatchSize.Observe(float64(live))
	if live == 0 {
		for _, j := range jobs {
			j.notify()
		}
		return
	}

	// Every live job's rows are resolved on this batch's snapshot — by
	// quantizeJob at admission when the snapshot is unchanged (the steady
	// state: just scan the entries it stored), or by refreshJob above
	// after a reload. Either way j.ents is current; no row needs a second
	// map lookup here.
	single := true
	var first *edgeEntry
	for _, j := range jobs {
		if j.shed {
			continue
		}
		for r := 0; r < j.n; r++ {
			e := j.ents[r]
			if first == nil {
				first = e
			} else if e.m != first.m {
				single = false
			}
		}
	}

	if single {
		// Fast path: one model serves every live row. Prefer the dense
		// code-space walk — in place over a job's own slab when the
		// batch is one job (the /predict/batch steady state), via a
		// gathered scratch slab otherwise (coalesced singletons).
		codes := first.m.CodeSpace()
		if codes {
			for _, j := range jobs {
				if !j.shed && j.qm != first.m {
					codes = false
					break
				}
			}
		}
		var err error
		switch {
		case codes && liveJobs == 1:
			err = first.m.PredictCodesDense(lone.cx[:lone.n*nf], lone.out[:lone.n])
		case codes:
			sc.cx = grow(sc.cx, live*nf)
			sc.out = grow(sc.out, live)
			off := 0
			for _, j := range jobs {
				if j.shed {
					continue
				}
				copy(sc.cx[off*nf:], j.cx[:j.n*nf])
				off += j.n
			}
			err = first.m.PredictCodesDense(sc.cx[:live*nf], sc.out[:live])
			scatter(jobs, sc.out)
		default:
			xs := sc.xs[:0]
			for _, j := range jobs {
				if j.shed {
					continue
				}
				for r := 0; r < j.n; r++ {
					xs = append(xs, j.x[r*nf:(r+1)*nf])
				}
			}
			sc.xs = xs
			sc.out = grow(sc.out, live)
			err = first.m.PredictBatch(xs, sc.out[:live])
			scatter(jobs, sc.out)
		}
		if err != nil {
			for _, j := range jobs {
				if !j.shed {
					j.err = err
				}
			}
		}
		for _, j := range jobs {
			j.notify()
		}
		return
	}

	// General path: group live rows by resolved model, one batch predict
	// per group, code-space when the whole group's jobs carry codes cut
	// for it. Rare (a batch spanning edges with different models), so the
	// grouping structures may allocate.
	type rowRef struct {
		j *job
		r int
	}
	groups := map[*gbt.Model][]rowRef{}
	for _, j := range jobs {
		if j.shed {
			continue
		}
		for r := 0; r < j.n; r++ {
			m := j.ents[r].m
			groups[m] = append(groups[m], rowRef{j, r})
		}
	}
	for m, refs := range groups {
		out := make([]float64, len(refs))
		codes := m.CodeSpace()
		if codes {
			for _, rr := range refs {
				if rr.j.qm != m {
					codes = false
					break
				}
			}
		}
		var err error
		if codes {
			cxs := make([][]uint8, len(refs))
			for k, rr := range refs {
				cxs[k] = rr.j.cx[rr.r*nf : (rr.r+1)*nf]
			}
			err = m.PredictCodes(cxs, out)
		} else {
			xs := make([][]float64, len(refs))
			for k, rr := range refs {
				xs[k] = rr.j.x[rr.r*nf : (rr.r+1)*nf]
			}
			err = m.PredictBatch(xs, out)
		}
		for k, rr := range refs {
			if err != nil {
				rr.j.err = err
			} else {
				rr.j.out[rr.r] = out[k]
			}
		}
	}
	for _, j := range jobs {
		j.notify()
	}
}

// scatter copies gathered results back into each live job's out slab, in
// the same job order the gather walked.
func scatter(jobs []*job, out []float64) {
	off := 0
	for _, j := range jobs {
		if j.shed {
			continue
		}
		copy(j.out[:j.n], out[off:off+j.n])
		off += j.n
	}
}

// refreshJob rebases a job admitted under an older registry generation
// onto this batch's snapshot: every column of the new layout is remapped
// by feature name from the old slab (names the new layout does not know
// drop out, exactly like the lenient re-vectorization the map-based
// handoff performed), then the rows are re-quantized against the new
// snapshot's serving models — the code-space twin of the remap.
func (s *Server) refreshJob(sc *shardScratch, j *job, snap *Registry) {
	old := j.areg
	onf, nf := len(old.Features), len(snap.Features)
	sc.cm = grow(sc.cm, nf)
	for c, name := range snap.Features {
		if k, ok := old.nameIdx[name]; ok {
			sc.cm[c] = k
		} else {
			sc.cm[c] = -1
		}
	}
	sc.rx = grow(sc.rx, j.n*nf)
	for r := 0; r < j.n; r++ {
		for c := 0; c < nf; c++ {
			if k := sc.cm[c]; k >= 0 {
				sc.rx[r*nf+c] = j.x[r*onf+k]
			} else {
				sc.rx[r*nf+c] = 0
			}
		}
	}
	j.x = grow(j.x, j.n*nf)
	copy(j.x, sc.rx[:j.n*nf])
	j.cx = grow(j.cx, j.n*nf)
	s.quantizeJob(j, snap)
}
