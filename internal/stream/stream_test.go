package stream

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/ml/dataset"
	"repro/internal/ml/gbt"
	"repro/internal/serve"
	"repro/internal/simulate"
)

// streamRefresher builds a refresher with fast, deterministic training
// parameters for tests.
func streamRefresher(t *testing.T, regPath string) *Refresher {
	t.Helper()
	p := gbt.DefaultParams()
	p.Rounds = 20
	p.Bins = 64
	p.Workers = 1
	return NewRefresher(RefreshConfig{
		WindowCap:    512,
		MinTrain:     32,
		GBT:          p,
		WarmRounds:   8,
		RegistryPath: regPath,
		Logf:         t.Logf,
	})
}

// feedWindow ingests n records from a deterministic world into rf.
func feedWindow(t *testing.T, rf *Refresher, n int, seed int64) {
	t.Helper()
	l, _, err := simulate.GenerateLog(simulate.Config{
		Seed: seed, Horizon: 48 * 3600, HeavyEdges: 3, HeavyTransfersMean: 80,
		HubEndpoints: 5, NoisyFrac: 0.5, BurstMax: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) < n {
		t.Fatalf("world has %d records, need %d", len(l.Records), n)
	}
	for _, r := range l.Records[:n] {
		if err := rf.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
}

// datasetFromWindow converts window vectors to a training dataset, the
// same way the refresher does.
func datasetFromWindow(vecs []features.Vector) (*dataset.Dataset, error) {
	return features.Dataset(vecs, false)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamEndToEnd is the issue's acceptance test: tail a growing CSV
// log into the refresher, let it bootstrap and then warm-promote at
// least once into a registry that a live `wanperf serve` hot-reloads
// (via its stamp-checking watcher) without dropping a request — then
// inject a drifted window (the same workload with rates blown up two
// orders of magnitude) and require the gate to reject it while the
// prior generation keeps serving.
func TestStreamEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "transfers.csv")
	regPath := filepath.Join(dir, "registry.json")

	l, _, err := simulate.GenerateLog(simulate.Config{
		Seed: 99, Horizon: 200 * 3600, HeavyEdges: 3, HeavyTransfersMean: 160,
		HubEndpoints: 5, NoisyFrac: 0.5, BurstMax: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) < 400 {
		t.Fatalf("world too small: %d records", len(l.Records))
	}
	recs := l.Records[:400]

	// RefreshEvery == WindowCap: every refresh sees a fully turned-over
	// window, so a drifted batch dominates the training split of the
	// refresh it triggers instead of hiding in the eval tail.
	var decisions []Decision
	runner, err := NewRunner(Config{
		Tail: TailConfig{Path: logPath, Poll: 10 * time.Millisecond},
		Refresh: RefreshConfig{
			WindowCap:    200,
			RefreshEvery: 200,
			MinTrain:     100,
			GBT: func() gbt.Params {
				p := gbt.DefaultParams()
				p.Rounds = 20
				p.Bins = 64
				p.Workers = 1
				return p
			}(),
			WarmRounds:   8,
			RegistryPath: regPath,
			OnDecision:   func(d Decision) { decisions = append(decisions, d) },
			Logf:         t.Logf,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Tailer.Close()

	writeRecords := func(rs []logs.Record) {
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		cw := logs.NewCSVWriter(f)
		for i := range rs {
			if err := cw.Write(&rs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: grow the log to the first refresh; the bootstrap
	// promotion must write a registry a server can boot from.
	writeRecords(recs[:200])
	if err := runner.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || decisions[0].Action != "bootstrap" {
		t.Fatalf("want one bootstrap after first drain, got %+v", decisions)
	}

	srv, err := serve.New(serve.Config{
		RegistryPath:  regPath,
		WatchInterval: 10 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain()
	gen1 := srv.Generation()

	predict := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err := srv.PredictSync(ctx, &serve.PredictRequest{
			Src: "S1", Dst: "D1",
			Features: map[string]float64{"C": 2, "P": 4, "Nf": 100, "Nb": 5e9},
		})
		return err
	}
	if err := predict(); err != nil {
		t.Fatalf("predict against bootstrap registry: %v", err)
	}

	// Phase 2: a second same-world window. The warm retrain must pass
	// the gate, promote, and reach the live server through its watcher.
	writeRecords(recs[200:400])
	if err := runner.Drain(); err != nil {
		t.Fatal(err)
	}
	if last := decisions[len(decisions)-1]; last.Action != "promote" {
		t.Fatalf("same-world refresh did not promote: %+v", last)
	}
	waitFor(t, "watcher to adopt the promoted registry", func() bool {
		return srv.Generation() > gen1
	})
	gen2 := srv.Generation()
	if err := predict(); err != nil {
		t.Fatalf("predict against promoted registry: %v", err)
	}

	// Phase 3: inject drift — the same workload with bytes ×100 over
	// unchanged durations, i.e. rates two orders of magnitude off. The
	// candidate warm-trained on this window predicts a different world
	// than the blessed model; the divergence gate must reject it and
	// the serving registry must not move.
	before, err := os.Stat(regPath)
	if err != nil {
		t.Fatal(err)
	}
	drifted := make([]logs.Record, 200)
	for i, r := range recs[200:400] {
		r.ID += 1 << 20
		r.Ts += 1000 * 3600
		r.Te += 1000 * 3600
		r.Bytes *= 100
		drifted[i] = r
	}
	writeRecords(drifted)
	if err := runner.Drain(); err != nil {
		t.Fatal(err)
	}
	last := decisions[len(decisions)-1]
	if last.Action != "reject" {
		t.Fatalf("drifted window was not rejected: %+v", last)
	}
	if len(last.Violations) == 0 {
		t.Fatal("drift rejection carries no violations")
	}
	after, err := os.Stat(regPath)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("rejected drifted candidate rewrote the registry")
	}
	// Let the watcher take a few looks at the unchanged file: the prior
	// generation must keep serving.
	time.Sleep(100 * time.Millisecond)
	if got := srv.Generation(); got != gen2 {
		t.Fatalf("generation moved %d → %d after a rejected candidate", gen2, got)
	}
	if err := predict(); err != nil {
		t.Fatalf("predict after rejected drift: %v", err)
	}
	t.Logf("decisions: %d (last: %s, violations: %v)", len(decisions), last.Action, last.Violations)
}

// TestRunnerRunLoop drives the polling loop itself (rather than manual
// drains) against a growing file and a cancel.
func TestRunnerRunLoop(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "transfers.csv")
	runner, err := NewRunner(Config{
		Tail:    TailConfig{Path: logPath, Poll: 5 * time.Millisecond},
		Refresh: RefreshConfig{MinTrain: 1 << 30}, // never train; just tail
	})
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := simulate.GenerateLog(simulate.Config{
		Seed: 3, Horizon: 6 * 3600, HeavyEdges: 2, HeavyTransfersMean: 20, HubEndpoints: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cw := logs.NewCSVWriter(f)
	for i := range l.Records {
		if err := cw.Write(&l.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runner.Run(ctx) }()
	waitFor(t, "run loop to ingest the log", func() bool {
		return runner.Refresher.Stats().Ingested >= uint64(len(l.Records))
	})
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("run loop returned %v, want context.Canceled", err)
	}
}
