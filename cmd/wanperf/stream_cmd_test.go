package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestStreamCommandFlags pins the stream flag plumbing and its
// usage-error contract.
func TestStreamCommandFlags(t *testing.T) {
	cmd, _, opts, err := parseArgs([]string{"stream",
		"-in", "x.csv", "-registry", "r.json", "-log-format", "columnar",
		"-poll", "50ms", "-window", "1000", "-refresh-every", "200", "-min-train", "100"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "stream" || opts.in != "x.csv" || opts.registry != "r.json" ||
		opts.logFormat != "columnar" || opts.poll != 50*time.Millisecond ||
		opts.window != 1000 || opts.refreshEvery != 200 || opts.minTrain != 100 {
		t.Errorf("stream flags not parsed: %+v", opts)
	}
	if needsPipeline("stream") {
		t.Error("stream must not simulate a pipeline")
	}

	if _, _, _, err := parseArgs([]string{"stream", "-log-format", "tsv"}); !errors.Is(err, errUsage) {
		t.Errorf("bad -log-format: %v, want usage error", err)
	}
	if _, _, _, err := parseArgs([]string{"stream", "-window", "-5"}); !errors.Is(err, errUsage) {
		t.Errorf("negative -window: %v, want usage error", err)
	}

	// Missing -in / -registry are usage errors.
	base := options{gbtBins: 256, logFormat: "auto"}
	err = run(context.Background(), "stream", simulateConfigForTest(), base, nil)
	if !errors.Is(err, errUsage) {
		t.Errorf("stream without -in: %v, want usage error", err)
	}
	withIn := base
	withIn.in = "x.csv"
	err = run(context.Background(), "stream", simulateConfigForTest(), withIn, nil)
	if !errors.Is(err, errUsage) {
		t.Errorf("stream without -registry: %v, want usage error", err)
	}
}

// TestStreamCommandRunsAndCancels drives the real subcommand against an
// empty directory: it must start, poll without a log file, and exit
// cleanly on cancellation.
func TestStreamCommandRunsAndCancels(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		gbtBins:   64,
		logFormat: "auto",
		in:        filepath.Join(dir, "transfers.csv"),
		registry:  filepath.Join(dir, "registry.json"),
		poll:      5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, "stream", simulateConfigForTest(), opts, nil) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled stream returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not exit on cancellation")
	}
	// No promotions happened; nothing should have been written.
	if _, err := os.Stat(opts.registry); !os.IsNotExist(err) {
		t.Fatalf("registry unexpectedly exists: %v", err)
	}
}
