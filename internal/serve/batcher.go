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
// one kernel call per serving model over the gathered rows, publishes
// every result, and wakes each job with a single channel send — one wake
// per job per drained batch, never one per row. The waiter alone
// recycles the job (an abandoned job — client deadline, drain hard-stop
// — is left to the GC, because the batcher may still be writing into
// it).

// job is one admitted unit of work.
type job struct {
	n          int       // rows
	x          []float64 // n*nf row-major slab, vectorized against areg's layout
	srcs, dsts []string
	areg       *Registry // admission snapshot (layout + generation of x)
	enq        time.Time

	// Results, written by the batcher before the done send.
	out      []float64    // per-row rate
	ents     []*edgeEntry // per-row serving entry (model, label, latency key)
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
	j.out = grow(j.out, n)
	j.srcs = grow(j.srcs, n)
	j.dsts = grow(j.dsts, n)
	j.ents = grow(j.ents, n)
	j.shed, j.err, j.notified = false, nil, false
	return j
}

// free recycles a job whose result has been consumed (or that was never
// enqueued). Registry-retaining fields are cleared so a pooled job does
// not pin an old generation's models in memory.
func (j *job) free() {
	j.areg = nil
	clear(j.ents)
	jobPool.Put(j)
}

// notify publishes the job's results to its waiter.
func (j *job) notify() {
	j.notified = true
	j.done <- struct{}{}
}

// resolve sets each row's serving entry from the admission snapshot.
// The batcher groups rows by the resolved model and scores each group
// with one kernel call, so the entries are looked up once per job, not
// once per batch.
func (j *job) resolve(snap *Registry) {
	j.areg = snap
	// Memoize the previous row's (src, dst): batch rows often share an
	// edge, and with interned labels the equality checks are pointer
	// comparisons — two map hits become two pointer tests.
	var psrc, pdst string
	var pent *edgeEntry
	for r := 0; r < j.n; r++ {
		e := pent
		if e == nil || j.srcs[r] != psrc || j.dsts[r] != pdst {
			e = snap.lookupEntry(j.srcs[r], j.dsts[r])
			psrc, pdst, pent = j.srcs[r], j.dsts[r], e
		}
		j.ents[r] = e
	}
}

// rowRef locates one live row of a batch in its job.
type rowRef struct {
	j *job
	r int
}

// shardScratch is one batcher's reusable working storage, so a steady
// flow of jobs batches with zero per-batch allocation whatever mix of
// edges it carries.
type shardScratch struct {
	jobs []*job

	// Grouping (see predictGrouped).
	gidx   map[*gbt.Model]int32 // model -> group number, cleared per batch
	models []*gbt.Model         // group number -> model, first-seen order
	gid    []int32              // group of each live row, in gather order
	start  []int                // group g's rows are refs[start[g]:start[g+1]]
	next   []int                // counting-sort fill cursor per group
	refs   []rowRef             // live rows ordered by group

	x   []float64   // gathered feature rows, parallel to refs
	cx  []uint8     // their bin codes
	xs  [][]float64 // row views for the float forest
	out []float64   // results, parallel to refs

	cm []int     // refresh column remap
	rx []float64 // refresh slab
}

// batcherLoop drains one admission shard. The first job of a batch is
// taken blocking; more are coalesced nonblocking until the gathered rows
// reach BatchMax — under singleton load batches fill with many one-row
// jobs and amortize inference, while an idle daemon answers a lone
// request immediately instead of waiting for company.
func (s *Server) batcherLoop(shard chan *job) {
	sc := &shardScratch{jobs: make([]*job, 0, s.cfg.BatchMax), gidx: map[*gbt.Model]int32{}}
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
	now := time.Now()
	s.mBatches.Inc()

	// Per-job admission bookkeeping: shed the stale, refresh jobs
	// admitted under an older generation.
	live := 0
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
	}
	s.mBatchSize.Observe(float64(live))
	if live > 0 {
		s.predictGrouped(sc, live, len(snap.Features))
	}
	for _, j := range jobs {
		j.notify()
	}
}

// predictGrouped scores every live row of the batch with one kernel call
// per serving model and writes each result into its job. A single-edge
// batch is one group; a batch spanning edges is one group per edge model
// plus one for the global fallback. Each group's rows are gathered into
// one contiguous slab, quantized column-major against the model's cuts —
// a group's rows share a model, so its cut arrays stay hot across them —
// and walked as one dense code-space block. A group falls back to the
// float forest when its model has no code forest (loaded from a file
// without cut points, or a threshold off the bin-edge grid) or the quantizer refuses a value (NaN
// or ±Inf); the answers are bit-identical either way, so the choice is
// only about speed. Rows are counting-sorted into per-group ranges of
// the scratch arrays, so nothing is allocated once the scratch has grown
// to the largest batch seen. Each row's rate depends on its own features
// and model only, so grouping cannot change an answer.
func (s *Server) predictGrouped(sc *shardScratch, live, nf int) {
	// Number the groups in first-seen order and tag every live row.
	// Consecutive rows often share a model, so the map is consulted
	// only when the model changes.
	clear(sc.gidx)
	sc.models = sc.models[:0]
	sc.gid = grow(sc.gid, live)
	var pm *gbt.Model
	var pg int32
	k := 0
	for _, j := range sc.jobs {
		if j.shed {
			continue
		}
		for r := 0; r < j.n; r++ {
			if m := j.ents[r].m; m != pm {
				g, ok := sc.gidx[m]
				if !ok {
					g = int32(len(sc.models))
					sc.gidx[m] = g
					sc.models = append(sc.models, m)
				}
				pm, pg = m, g
			}
			sc.gid[k] = pg
			k++
		}
	}

	// Counting sort: group g's rows land in refs[start[g]:start[g+1]],
	// in gather order.
	ng := len(sc.models)
	sc.start = grow(sc.start, ng+1)
	clear(sc.start)
	for _, g := range sc.gid {
		sc.start[g+1]++
	}
	for g := 0; g < ng; g++ {
		sc.start[g+1] += sc.start[g]
	}
	sc.next = append(sc.next[:0], sc.start[:ng]...)
	sc.refs = grow(sc.refs, live)
	k = 0
	for _, j := range sc.jobs {
		if j.shed {
			continue
		}
		for r := 0; r < j.n; r++ {
			g := sc.gid[k]
			k++
			sc.refs[sc.next[g]] = rowRef{j, r}
			sc.next[g]++
		}
	}

	// One kernel call per group, then scatter.
	sc.x = grow(sc.x, live*nf)
	sc.cx = grow(sc.cx, live*nf)
	sc.out = grow(sc.out, live)
	for g, m := range sc.models {
		lo, hi := sc.start[g], sc.start[g+1]
		refs, out := sc.refs[lo:hi], sc.out[lo:hi]
		x, cx := sc.x[lo*nf:hi*nf], sc.cx[lo*nf:hi*nf]
		for i, rr := range refs {
			copy(x[i*nf:(i+1)*nf], rr.j.x[rr.r*nf:(rr.r+1)*nf])
		}
		var err error
		if m.CodeSpace() && m.QuantizeSlab(x, cx) == nil {
			err = m.PredictCodesDense(cx, out)
			s.mCodeRows.Add(int64(len(refs)))
		} else {
			sc.xs = grow(sc.xs, len(refs))
			for i := range refs {
				sc.xs[i] = x[i*nf : (i+1)*nf]
			}
			err = m.PredictBatch(sc.xs, out)
			s.mFloatRows.Add(int64(len(refs)))
		}
		for i, rr := range refs {
			if err != nil {
				rr.j.err = err
			} else {
				rr.j.out[rr.r] = out[i]
			}
		}
	}
}

// refreshJob rebases a job admitted under an older registry generation
// onto this batch's snapshot: every column of the new layout is remapped
// by feature name from the old slab (names the new layout does not know
// drop out, exactly like the lenient re-vectorization the map-based
// handoff performed), then every row's serving model is resolved again
// against the new snapshot.
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
	j.resolve(snap)
}
