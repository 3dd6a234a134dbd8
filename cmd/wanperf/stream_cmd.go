package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"repro/internal/ml/gbt"
	"repro/internal/stream"
)

// cmdStream runs the online refresh loop: tail a growing transfer log,
// maintain the sliding feature window, retrain behind the drift gate,
// and write promoted registries where a `wanperf serve` process (started
// with -registry pointing at the same file) hot-reloads them.
func cmdStream(c cmdContext) error {
	if c.opts.in == "" {
		return fmt.Errorf("%w: stream requires -in FILE (the log to tail)", errUsage)
	}
	if c.opts.registry == "" {
		return fmt.Errorf("%w: stream requires -registry FILE (where promotions land)", errUsage)
	}

	format := c.opts.logFormat
	if format == "auto" {
		format = stream.FormatAuto
	}
	p := gbt.DefaultParams()
	p.Bins = c.opts.gbtBins

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	cfg := stream.Config{
		Tail: stream.TailConfig{
			Path:   c.opts.in,
			Poll:   c.opts.poll,
			Format: format,
			Logf:   logf,
		},
		Refresh: stream.RefreshConfig{
			WindowCap:    c.opts.window,
			RefreshEvery: c.opts.refreshEvery,
			MinTrain:     c.opts.minTrain,
			GBT:          p,
			RegistryPath: c.opts.registry,
			Logf:         logf,
			OnDecision: func(d stream.Decision) {
				switch d.Action {
				case "reject":
					fmt.Printf("refresh %d: REJECTED (%d rows): %v\n", d.Seq, d.WindowRows, d.Violations)
				default:
					fmt.Printf("refresh %d: %s (%d rows, generation %d)\n", d.Seq, d.Action, d.WindowRows, d.Promotions)
				}
			},
		},
	}
	err := stream.Run(c.ctx, cfg)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
