package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/ml/gbt"
	"repro/internal/serve"
)

// RefreshConfig tunes the online retrain loop.
type RefreshConfig struct {
	// WindowCap bounds the sliding window, in records (default 4096).
	WindowCap int
	// RefreshEvery is how many ingested records trigger a retrain
	// (default 512).
	RefreshEvery int
	// MinTrain is the smallest window that may train a model
	// (default 256).
	MinTrain int
	// EvalFrac is the fraction of the window (its newest records) held
	// out for the drift check (default 0.25).
	EvalFrac float64
	// Gate holds the promotion tolerances (default DefaultDriftGate).
	Gate DriftGate
	// GBT are the cold-start training parameters. Zero means
	// gbt.DefaultParams.
	GBT gbt.Params
	// WarmRounds is how many residual trees a warm refresh appends
	// (default 50).
	WarmRounds int
	// MaxWarmTrees bounds the ensemble: once the blessed model reaches
	// this many trees, the next refresh retrains cold instead of
	// appending (default 600).
	MaxWarmTrees int
	// RegistryPath, when set, is where promotions write the serving
	// registry (atomic tmp+rename, so a watching `wanperf serve` hot
	// reloads it). Empty keeps promotions in memory.
	RegistryPath string
	// OnDecision, when set, observes every refresh decision.
	OnDecision func(Decision)
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *RefreshConfig) fillDefaults() {
	if c.WindowCap <= 0 {
		c.WindowCap = 4096
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 512
	}
	if c.MinTrain <= 0 {
		c.MinTrain = 256
	}
	if c.EvalFrac <= 0 || c.EvalFrac >= 1 {
		c.EvalFrac = 0.25
	}
	if c.Gate == (DriftGate{}) {
		c.Gate = DefaultDriftGate()
	}
	if c.GBT.Rounds == 0 {
		c.GBT = gbt.DefaultParams()
	}
	if c.WarmRounds <= 0 {
		c.WarmRounds = 50
	}
	if c.MaxWarmTrees <= 0 {
		c.MaxWarmTrees = 600
	}
}

// Decision records the outcome of one refresh.
type Decision struct {
	// Seq numbers refreshes from 1.
	Seq int
	// Action is "bootstrap" (first model, promoted unchecked),
	// "promote", or "reject".
	Action string
	// Metrics and Violations are zero/nil for a bootstrap.
	Metrics    DriftMetrics
	Violations []string
	// Promotions counts registry generations written so far (including
	// this one when the action promoted).
	Promotions int
	// WindowRows is the window size the decision was made on.
	WindowRows int
}

// RefreshStats aggregates refresh outcomes.
type RefreshStats struct {
	Ingested   uint64
	Refreshes  uint64
	Promotions uint64
	Rejections uint64
}

// refreshCounters is the live, atomically updated form of RefreshStats,
// so Stats can be read while the stream runner's goroutine ingests.
type refreshCounters struct {
	ingested, refreshes, promotions, rejections atomic.Uint64
}

// Refresher maintains the sliding window and retrains the serving model
// on it, gating every candidate behind the drift check before it may
// replace the blessed model. Not safe for concurrent use; the stream
// runner calls it from a single goroutine.
type Refresher struct {
	cfg          RefreshConfig
	win          *Window
	blessed      *gbt.Model
	sinceRefresh int
	seq          int
	ctr          refreshCounters
}

// NewRefresher returns a refresher with cfg's zero fields defaulted.
func NewRefresher(cfg RefreshConfig) *Refresher {
	cfg.fillDefaults()
	return &Refresher{cfg: cfg, win: NewWindow(cfg.WindowCap)}
}

// Window exposes the sliding window (for inspection in tests and stats).
func (rf *Refresher) Window() *Window { return rf.win }

// Blessed returns the currently blessed model, nil before bootstrap.
func (rf *Refresher) Blessed() *gbt.Model { return rf.blessed }

// Stats returns a snapshot of the refresh counters. Safe to call from
// another goroutine while the stream runner ingests.
func (rf *Refresher) Stats() RefreshStats {
	return RefreshStats{
		Ingested:   rf.ctr.ingested.Load(),
		Refreshes:  rf.ctr.refreshes.Load(),
		Promotions: rf.ctr.promotions.Load(),
		Rejections: rf.ctr.rejections.Load(),
	}
}

func (rf *Refresher) logf(format string, args ...any) {
	if rf.cfg.Logf != nil {
		rf.cfg.Logf(format, args...)
	}
}

// Ingest adds one record to the window and refreshes the model when the
// refresh cadence and minimum window size are both met.
func (rf *Refresher) Ingest(r logs.Record) error {
	rf.win.Add(r)
	rf.ctr.ingested.Add(1)
	rf.sinceRefresh++
	if rf.sinceRefresh < rf.cfg.RefreshEvery || rf.win.Len() < rf.cfg.MinTrain {
		return nil
	}
	rf.sinceRefresh = 0
	_, err := rf.Refresh()
	return err
}

// Refresh trains a candidate on the current window and decides its fate:
// the first candidate bootstraps the registry, later ones must pass the
// drift gate. A rejected candidate changes nothing — the blessed model
// and the registry file stay exactly as they were.
func (rf *Refresher) Refresh() (Decision, error) {
	rf.seq++
	rf.ctr.refreshes.Add(1)
	dec := Decision{Seq: rf.seq, WindowRows: rf.win.Len()}

	vecs := rf.win.Vectors()
	ds, err := features.Dataset(vecs, false)
	if err != nil {
		return dec, fmt.Errorf("stream: refresh %d: %w", rf.seq, err)
	}
	// Oldest records train, newest are held out for the drift check: the
	// gate judges the candidate on the part of the window the blessed
	// model has least recently seen.
	n := ds.Len()
	evalN := int(float64(n) * rf.cfg.EvalFrac)
	if evalN < 1 {
		evalN = 1
	}
	if evalN >= n {
		evalN = n - 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	trainDS := ds.Subset(idx[:n-evalN])
	evalDS := ds.Subset(idx[n-evalN:])

	var cand *gbt.Model
	if rf.blessed != nil && rf.blessed.NumTrees() < rf.cfg.MaxWarmTrees {
		p := rf.cfg.GBT
		p.Rounds = rf.cfg.WarmRounds
		cand, err = gbt.TrainWarm(trainDS, p, rf.blessed)
	} else {
		cand, err = gbt.Train(trainDS, rf.cfg.GBT)
	}
	if err != nil {
		return dec, fmt.Errorf("stream: refresh %d: training candidate: %w", rf.seq, err)
	}

	if rf.blessed == nil {
		dec.Action = "bootstrap"
	} else {
		m, err := EvalDrift(rf.blessed, cand, evalDS)
		if err != nil {
			return dec, fmt.Errorf("stream: refresh %d: %w", rf.seq, err)
		}
		dec.Metrics = m
		g := rf.cfg.Gate.Judge(m)
		dec.Violations = g.Violations
		if g.Allow() {
			dec.Action = "promote"
		} else {
			dec.Action = "reject"
		}
	}

	if dec.Action == "reject" {
		rf.ctr.rejections.Add(1)
		rf.logf("stream: refresh %d: candidate rejected (%d rows): %v", rf.seq, dec.WindowRows, dec.Violations)
	} else {
		if err := rf.promote(cand, trainDS.X); err != nil {
			return dec, fmt.Errorf("stream: refresh %d: promoting: %w", rf.seq, err)
		}
		rf.blessed = cand
		rf.ctr.promotions.Add(1)
		rf.logf("stream: refresh %d: %s (%d rows, %d trees)", rf.seq, dec.Action, dec.WindowRows, cand.NumTrees())
	}
	dec.Promotions = int(rf.ctr.promotions.Load())
	if rf.cfg.OnDecision != nil {
		rf.cfg.OnDecision(dec)
	}
	return dec, nil
}

// promote publishes cand as the new serving registry: a global-only
// registry with sanity probes recorded from training rows, written
// atomically next to the target path so a watching server never reads a
// half-written file.
func (rf *Refresher) promote(cand *gbt.Model, rows [][]float64) error {
	if rf.cfg.RegistryPath == "" {
		return nil
	}
	reg := &serve.Registry{
		Features: append([]string(nil), features.Names...),
		Global:   cand,
	}
	stride := len(rows) / 3
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(rows) && len(reg.Probes) < 3; i += stride {
		want, err := cand.Predict(rows[i])
		if err != nil {
			return err
		}
		reg.Probes = append(reg.Probes, serve.Probe{
			X:    append([]float64(nil), rows[i]...),
			Want: want,
		})
	}
	tmp := rf.cfg.RegistryPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := serve.WriteRegistry(f, reg); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, rf.cfg.RegistryPath); err != nil {
		os.Remove(tmp)
		return err
	}
	rf.logf("stream: wrote registry %s (%d trees)", filepath.Base(rf.cfg.RegistryPath), cand.NumTrees())
	return nil
}
