package stream

import (
	"context"
	"time"

	"repro/internal/logs"
)

// Config wires a tailer to a refresher: follow a growing transfer log,
// maintain the sliding window, retrain behind the drift gate, and write
// promoted registries where a serving process hot-reloads them.
type Config struct {
	Tail    TailConfig
	Refresh RefreshConfig
}

// Runner is a running stream: one tailer feeding one refresher.
type Runner struct {
	Tailer    *Tailer
	Refresher *Refresher
}

// NewRunner validates cfg and builds the pieces without starting them.
func NewRunner(cfg Config) (*Runner, error) {
	t, err := NewTailer(cfg.Tail)
	if err != nil {
		return nil, err
	}
	return &Runner{Tailer: t, Refresher: NewRefresher(cfg.Refresh)}, nil
}

// Drain performs one synchronous pass: tail everything currently
// available into the refresher. Training errors surface here.
func (r *Runner) Drain() error {
	var ingestErr error
	err := r.Tailer.Drain(func(rec logs.Record) {
		if ingestErr == nil {
			ingestErr = r.Refresher.Ingest(rec)
		}
	})
	if err != nil {
		return err
	}
	return ingestErr
}

// Run polls until ctx is done. It returns ctx.Err() on a clean shutdown
// and the underlying error if tailing or training fails.
func (r *Runner) Run(ctx context.Context) error {
	tick := time.NewTicker(r.Tailer.cfg.Poll)
	defer tick.Stop()
	for {
		if err := r.Drain(); err != nil {
			r.Tailer.Close()
			return err
		}
		select {
		case <-ctx.Done():
			r.Tailer.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Run follows cfg.Tail.Path until ctx is done — the `wanperf stream`
// entry point.
func Run(ctx context.Context, cfg Config) error {
	r, err := NewRunner(cfg)
	if err != nil {
		return err
	}
	return r.Run(ctx)
}
