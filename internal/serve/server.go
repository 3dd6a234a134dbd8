package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Config parameterizes the daemon. The zero value of every field selects
// a production-reasonable default.
type Config struct {
	Addr         string // listen address (default ":8723")
	RegistryPath string // registry file, watched for changes

	QueueDepth     int           // total admission capacity, in jobs, split across shards (default 1024)
	BatchMax       int           // max rows coalesced into one inference batch (default 256)
	Batchers       int           // batcher goroutines / admission shards (default GOMAXPROCS)
	MaxBatchRows   int           // max rows in one /predict/batch request or PredictBatchSync call (default 4096)
	QueueTimeout   time.Duration // max admission-queue wait before shedding (default 100ms)
	RequestTimeout time.Duration // server-side cap on end-to-end wait (default 2s)
	DrainTimeout   time.Duration // hard deadline for SIGTERM drain (default 5s)
	WatchInterval  time.Duration // registry-file poll period (default 2s; <0 disables)
	RetryAfter     time.Duration // Retry-After hint on shed responses (default 1s)

	Metrics *obs.Registry        // instrument sink (default: fresh registry)
	Logf    func(string, ...any) // operational log (default log.Printf)
}

func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = ":8723"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 256
	}
	if c.Batchers <= 0 {
		c.Batchers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 4096
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.WatchInterval == 0 {
		c.WatchInterval = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// ErrShed is returned by the sync prediction entry points when the job
// waited past QueueTimeout and the batcher shed it (the HTTP twin is a
// 429 with reason queue_wait).
var ErrShed = errors.New("serve: shed on queue-wait timeout")

// Server is the prediction daemon. Create with New, drive with Run (the
// full daemon: listener, SIGHUP, drain) or with Start/Handler/Drain for
// embedding and tests.
type Server struct {
	cfg Config

	reg atomic.Pointer[Registry] // current serving snapshot
	gen atomic.Int64             // generation counter; stamped onto promoted registries

	// shards are the per-batcher admission channels. A request round-
	// robins over them (nonblocking admission tries every shard before
	// shedding), and each batcher drains its own shard — so a drained
	// batch is handed off with per-shard channel operations instead of
	// every batcher contending on one queue.
	shards   []chan *job
	rr       atomic.Uint64
	ready    atomic.Bool
	draining atomic.Bool
	inflight sync.WaitGroup // accepted (enqueued) requests not yet answered
	hardStop chan struct{}  // closed when the drain deadline passes

	stop      chan struct{} // closed to stop batchers and the watcher
	workers   sync.WaitGroup
	started   atomic.Bool
	drainOnce sync.Once
	drainErr  error
	reloadMu  sync.Mutex // serializes Reload (SIGHUP vs watcher)
	lastStamp registryStamp

	mux           *http.ServeMux
	single, batch route // the /predict and /predict/batch front doors

	// Instruments (all on cfg.Metrics).
	mPredictions, mBadRequests, mBatches *obs.Counter
	mPanics, mReloads, mReloadFailures   *obs.Counter
	mCodeRows, mFloatRows                *obs.Counter // rows scored per traversal
	mGeneration, mQueueDepth             *obs.Gauge
	mBatchSize, mQueueWait, mLatency     *obs.Histogram
	mBatchRows                           *obs.Histogram
	latBuckets                           []float64
}

// registryStamp identifies a registry file state, so the watcher can skip
// files it has already loaded or already failed to load.
type registryStamp struct {
	mtime time.Time
	size  int64
}

// New builds a server and loads the boot registry from
// cfg.RegistryPath. A missing or invalid registry fails construction —
// the daemon never starts without a validated model set.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		hardStop: make(chan struct{}),
		stop:     make(chan struct{}),
	}
	per := cfg.QueueDepth / cfg.Batchers
	if per < 1 {
		per = 1
	}
	s.shards = make([]chan *job, cfg.Batchers)
	for i := range s.shards {
		s.shards[i] = make(chan *job, per)
	}
	reg := cfg.Metrics
	s.single = route{requests: reg.Counter("serve.requests"), shed: "serve.shed", maxBody: MaxRequestBody}
	s.batch = route{requests: reg.Counter("serve.batch_requests"), shed: "serve.batch_shed", maxBody: MaxBatchBody, ndjson: true}
	s.mPredictions = reg.Counter("serve.predictions")
	s.mBadRequests = reg.Counter("serve.bad_requests")
	s.mPanics = reg.Counter("serve.panics")
	s.mReloads = reg.Counter("serve.reloads")
	s.mReloadFailures = reg.Counter("serve.reload_failures")
	s.mBatches = reg.Counter("serve.batches")
	s.mCodeRows = reg.Counter(`serve.kernel_rows{path="code"}`)
	s.mFloatRows = reg.Counter(`serve.kernel_rows{path="float"}`)
	s.mGeneration = reg.Gauge("serve.generation")
	s.mQueueDepth = reg.Gauge("serve.queue_depth")
	s.mBatchSize = reg.Histogram("serve.batch_size", obs.ExpBuckets(1, 2, 10))
	s.mBatchRows = reg.Histogram("serve.batch_rows", obs.ExpBuckets(1, 2, 13))
	s.mQueueWait = reg.Histogram("serve.queue_wait_ms", obs.ExpBuckets(0.05, 2, 16))
	s.mLatency = reg.Histogram("serve.latency_ms", obs.ExpBuckets(0.05, 2, 16))
	s.latBuckets = obs.ExpBuckets(0.05, 2, 16)

	boot, err := LoadRegistryFile(cfg.RegistryPath)
	if err != nil {
		return nil, err
	}
	boot.Generation = s.gen.Add(1)
	s.reg.Store(boot)
	s.mGeneration.Set(float64(boot.Generation))
	s.noteStamp()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) { s.serveJob(w, r, &s.single) })
	s.mux.HandleFunc("/predict/batch", func(w http.ResponseWriter, r *http.Request) { s.serveJob(w, r, &s.batch) })
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Registry returns the current serving snapshot.
func (s *Server) Registry() *Registry { return s.reg.Load() }

// Generation returns the current registry generation.
func (s *Server) Generation() int64 { return s.reg.Load().Generation }

// queueLen is the number of jobs currently queued across all shards.
func (s *Server) queueLen() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh)
	}
	return n
}

// admit tries to enqueue without blocking: the round-robin shard either
// has room now or every other shard is tried once; all full means the
// daemon is saturated and the job is shed.
func (s *Server) admit(j *job) bool {
	n := uint64(len(s.shards))
	start := s.rr.Add(1)
	for k := uint64(0); k < n; k++ {
		select {
		case s.shards[(start+k)%n] <- j:
			return true
		default:
		}
	}
	return false
}

// admitBlocking waits for queue room on one shard — the backpressure
// variant the sync entry points use instead of shedding.
func (s *Server) admitBlocking(ctx context.Context, j *job) error {
	if s.admit(j) {
		return nil
	}
	sh := s.shards[s.rr.Add(1)%uint64(len(s.shards))]
	select {
	case sh <- j:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.hardStop:
		return errors.New("serve: draining")
	}
}

// Start launches the batchers and the registry-file watcher and marks the
// server ready. It is idempotent.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for _, shard := range s.shards {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.batcherLoop(shard)
		}()
	}
	if s.cfg.WatchInterval > 0 {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.watchLoop()
		}()
	}
	s.ready.Store(true)
}

// Handler returns the daemon's HTTP handler with per-request panic
// isolation: a panicking request (including a pool.PanicError rethrown
// from batch inference) is answered with 500 and counted, and the daemon
// keeps serving.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.mPanics.Inc()
				s.cfg.Logf("serve: panic in %s %s: %v", r.Method, r.URL.Path, v)
				writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal error"})
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Reload loads, validates, and promotes the registry file. On any error
// the current registry keeps serving and the failure is counted; on
// success the new registry is visible to the next batch while in-flight
// batches finish on their old snapshot. Safe to call concurrently (SIGHUP
// and the file watcher serialize here).
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	next, err := LoadRegistryFile(s.cfg.RegistryPath)
	s.noteStamp()
	if err != nil {
		s.mReloadFailures.Inc()
		s.cfg.Logf("serve: reload rejected, keeping generation %d: %v", s.Generation(), err)
		return err
	}
	next.Generation = s.gen.Add(1)
	s.reg.Store(next)
	s.mReloads.Inc()
	s.mGeneration.Set(float64(next.Generation))
	s.cfg.Logf("serve: promoted registry generation %d (%d edge models)", next.Generation, len(next.Edges))
	return nil
}

// noteStamp records the registry file's current mtime/size so the watcher
// does not re-attempt a file state that was already loaded or rejected.
// Callers hold reloadMu (or are still constructing the server).
func (s *Server) noteStamp() {
	if fi, err := os.Stat(s.cfg.RegistryPath); err == nil {
		s.lastStamp = registryStamp{mtime: fi.ModTime(), size: fi.Size()}
	} else {
		s.lastStamp = registryStamp{}
	}
}

// watchLoop polls the registry file and reloads when it changes — the
// file-watch half of hot reload (SIGHUP is the other, see Run).
func (s *Server) watchLoop() {
	t := time.NewTicker(s.cfg.WatchInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.reloadMu.Lock()
		last := s.lastStamp
		s.reloadMu.Unlock()
		fi, err := os.Stat(s.cfg.RegistryPath)
		if err != nil {
			continue // transient (mid-rename); next tick retries
		}
		if fi.ModTime().Equal(last.mtime) && fi.Size() == last.size {
			continue
		}
		_ = s.Reload() // failure logged + counted; last good registry keeps serving
	}
}

// Drain performs graceful shutdown of the serving side: readiness flips
// off, new predictions are shed, and every already-accepted request is
// answered — by its batch if it completes in time, with a shed response
// once the hard deadline passes. Always returns with the queue empty and
// the batchers stopped; the error reports a deadline overrun. Idempotent:
// later calls return the first drain's outcome.
func (s *Server) Drain() error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.ready.Store(false)

		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(s.cfg.DrainTimeout):
			// Hard deadline: release every waiting handler with a shed
			// response, then wait for them to finish writing it.
			close(s.hardStop)
			<-done
			s.drainErr = fmt.Errorf("serve: drain deadline (%v) exceeded; remaining requests shed", s.cfg.DrainTimeout)
		}
		close(s.stop)
		s.workers.Wait()
	})
	return s.drainErr
}

// Run is the daemon entry point: listen on cfg.Addr, serve until ctx is
// cancelled (SIGTERM/SIGINT via the caller's signal context), reload on
// SIGHUP, then drain and shut the listener down. The returned error is
// nil on a clean drain.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.Start()
	srv := &http.Server{Handler: s.Handler()}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	s.cfg.Logf("serve: listening on %s (registry %s, generation %d)",
		ln.Addr(), s.cfg.RegistryPath, s.Generation())

	for {
		select {
		case <-ctx.Done():
			s.cfg.Logf("serve: shutdown signal, draining (deadline %v)", s.cfg.DrainTimeout)
			drainErr := s.Drain()
			shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
			defer cancel()
			if err := srv.Shutdown(shutCtx); err != nil && drainErr == nil {
				drainErr = err
			}
			return drainErr
		case <-hup:
			s.cfg.Logf("serve: SIGHUP, reloading registry")
			_ = s.Reload()
		case err := <-serveErr:
			return err
		}
	}
}

// ---- HTTP handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.ready.Load() && !s.draining.Load() {
		fmt.Fprintln(w, "ready")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "not ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mQueueDepth.Set(float64(s.queueLen()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, s.cfg.Metrics.Snapshot()); err != nil {
		s.cfg.Logf("serve: writing /metrics: %v", err)
	}
}

// BatchRow is one pre-vectorized row of a batch prediction: X carries
// the feature values in registry column order (len(Registry.Features)).
type BatchRow struct {
	Src, Dst string
	X        []float64
}

// PredictSync predicts one request through the admission queue and the
// batchers — the embedding entry point. It vectorizes req into a pooled
// one-row job and waits on the same path as PredictBatchSync. Unlike the
// HTTP path it blocks for queue room (ctx bounds the wait), so callers
// get backpressure instead of shedding.
func (s *Server) PredictSync(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	snap := s.reg.Load()
	j := newJob(1, len(snap.Features))
	if err := snap.Vectorize(req.Features, j.x); err != nil {
		j.free()
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	j.srcs[0], j.dsts[0] = req.Src, req.Dst
	out := make([]PredictResponse, 1)
	if err := s.runSync(ctx, j, snap, out); err != nil {
		return nil, err
	}
	return &out[0], nil
}

// PredictBatchSync submits every row as ONE admission unit — one queue
// slot, one batcher handoff, one wake — and fills out[i] with row i's
// answer. This is the embedding twin of POST /predict/batch and the
// steady-state zero-allocation path: the job and all its slabs are
// pooled, labels are interned registry strings, and the caller owns out.
// All rows are answered by the same snapshot generation. Blocks for
// queue room like PredictSync; a queue-wait shed sheds the whole batch
// (ErrShed).
func (s *Server) PredictBatchSync(ctx context.Context, rows []BatchRow, out []PredictResponse) error {
	if len(rows) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if len(rows) > s.cfg.MaxBatchRows {
		return fmt.Errorf("%w: %d rows exceeds max %d", ErrBadRequest, len(rows), s.cfg.MaxBatchRows)
	}
	if len(out) != len(rows) {
		return fmt.Errorf("%w: out has %d slots for %d rows", ErrBadRequest, len(out), len(rows))
	}
	snap := s.reg.Load()
	nf := len(snap.Features)
	j := newJob(len(rows), nf)
	for i := range rows {
		if len(rows[i].X) != nf {
			j.free()
			return fmt.Errorf("%w: row %d has %d features, want %d", ErrBadRequest, i, len(rows[i].X), nf)
		}
		copy(j.x[i*nf:(i+1)*nf], rows[i].X)
		j.srcs[i], j.dsts[i] = rows[i].Src, rows[i].Dst
	}
	s.mBatchRows.Observe(float64(len(rows)))
	return s.runSync(ctx, j, snap, out)
}

// runSync is the one blocking wait behind both sync entry points:
// resolve, admit with backpressure, wait for the batcher, and copy the
// answers into out (len j.n). The job is recycled unless the wait was
// abandoned (ctx, drain hard-stop), when the batcher may still write it.
func (s *Server) runSync(ctx context.Context, j *job, snap *Registry, out []PredictResponse) error {
	j.resolve(snap)
	j.enq = time.Now()
	s.inflight.Add(1)
	defer s.inflight.Done()
	if err := s.admitBlocking(ctx, j); err != nil {
		j.free()
		return err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.hardStop:
		return errors.New("serve: drain deadline passed")
	}
	defer j.free()
	switch {
	case j.err != nil:
		return j.err
	case j.shed:
		return ErrShed
	}
	for i := range out {
		out[i] = PredictResponse{Rate: j.out[i], Model: j.ents[i].label, Generation: j.gen, QueueMS: j.queueMS}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
