package simulate

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/logs"
)

// bigSpec is a transfer that saturates the twoNodeWorld edge for a while.
func bigSpec(bytes float64) TransferSpec {
	return TransferSpec{
		Src: "src", Dst: "dst", Start: 0, Bytes: bytes, Files: 16, Conc: 8, Par: 4,
	}
}

// runChaos drives one engine under a plan and returns log + stats.
func runChaos(t *testing.T, w *World, plan *ChaosPlan, specs ...TransferSpec) (*logs.Log, Stats, *Engine) {
	t.Helper()
	eng := NewEngine(w, 1)
	eng.Submit(specs...)
	if err := eng.SetChaos(plan); err != nil {
		t.Fatal(err)
	}
	l, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return l, eng.Stats(), eng
}

// TestFaultHazardFires pins the §4 fault model: with a hazard high enough
// that a saturating transfer must fault, Nflt is recorded and each fault
// stalls the transfer for FaultRetry seconds of wall clock.
func TestFaultHazardFires(t *testing.T) {
	base := twoNodeWorld()
	quiet := runOne(t, base, bigSpec(8e10)) // ~100 s at 800 MB/s, no faults
	if quiet.Records[0].Faults != 0 {
		t.Fatalf("baseline world faulted %d times", quiet.Records[0].Faults)
	}
	quietDur := quiet.Records[0].Te - quiet.Records[0].Ts

	w := twoNodeWorld()
	w.FaultBaseHazard = 0.05 // one fault per 20 s at full utilization
	w.FaultRetry = 30
	l := runOne(t, w, bigSpec(8e10))
	r := l.Records[0]
	if r.Faults == 0 {
		t.Fatal("high hazard on a saturating transfer produced no faults")
	}
	gotStall := (r.Te - r.Ts) - quietDur
	wantStall := float64(r.Faults) * w.FaultRetry
	if math.Abs(gotStall-wantStall) > 1 {
		t.Errorf("faults=%d stretched duration by %.1f s, want ~%.1f (FaultRetry=%g each)",
			r.Faults, gotStall, wantStall, w.FaultRetry)
	}
}

// TestStormRaisesFaultRate pins the correlated-storm mechanism: the same
// seed and workload fault more under a hazard-multiplying storm.
func TestStormRaisesFaultRate(t *testing.T) {
	mk := func(plan *ChaosPlan) int {
		w := twoNodeWorld()
		w.FaultBaseHazard = 0.002
		_, st, _ := runChaos(t, w, plan, bigSpec(8e10))
		return st.Faults
	}
	calm := mk(nil)
	stormy := mk(&ChaosPlan{Storms: []FaultStorm{{Start: 0, End: 4000, HazardFactor: 40}}})
	if stormy <= calm {
		t.Errorf("storm produced %d faults, calm run %d — storm should fault more", stormy, calm)
	}
}

// TestOutageStallsTransfer: a non-aborting outage freezes the in-flight
// transfer until the window ends; total duration grows by about the
// overlap with the outage.
func TestOutageStallsTransfer(t *testing.T) {
	quiet := runOne(t, twoNodeWorld(), bigSpec(8e10))
	quietDur := quiet.Records[0].Te - quiet.Records[0].Ts // ~100 s

	plan := &ChaosPlan{Outages: []OutageEvent{
		{EndpointID: "dst", Start: 20, End: 320, Abort: false},
	}}
	l, st, _ := runChaos(t, twoNodeWorld(), plan, bigSpec(8e10))
	if st.OutageStalls != 1 {
		t.Fatalf("OutageStalls = %d, want 1", st.OutageStalls)
	}
	r := l.Records[0]
	stretch := (r.Te - r.Ts) - quietDur
	if stretch < 250 || stretch > 350 {
		t.Errorf("outage stretched transfer by %.1f s, want ~300 (the stall window)", stretch)
	}
	if r.Retries != 0 {
		t.Errorf("stall outage recorded %d retries, want 0", r.Retries)
	}
}

// TestOutageAbortRetriesAndCompletes: an aborting outage kills the
// in-flight transfer; backoff brings it back and it completes with the
// retry recorded alongside Nflt in the log.
func TestOutageAbortRetriesAndCompletes(t *testing.T) {
	w := twoNodeWorld()
	plan := &ChaosPlan{Outages: []OutageEvent{
		{EndpointID: "dst", Start: 20, End: 120, Abort: true},
	}}
	l, st, _ := runChaos(t, w, plan, bigSpec(8e10))
	if st.OutageAborts != 1 {
		t.Fatalf("OutageAborts = %d, want 1", st.OutageAborts)
	}
	if st.Retries < 1 {
		t.Fatalf("no retries counted after an abort outage")
	}
	if len(l.Records) != 1 {
		t.Fatalf("got %d records, want the aborted transfer to complete on retry", len(l.Records))
	}
	r := l.Records[0]
	if r.Retries < 1 {
		t.Errorf("log record carries %d retries, want ≥ 1", r.Retries)
	}
	if r.Ts != 0 {
		t.Errorf("log Ts = %g, want the original submission start 0", r.Ts)
	}
	if r.Te <= 120 {
		t.Errorf("transfer finished at %g, inside the outage window", r.Te)
	}
}

// TestOutageAbandonment: with a tiny retry budget and an outage that keeps
// killing every attempt, the transfer is abandoned, never logged, and the
// accounting invariants still hold.
func TestOutageAbandonment(t *testing.T) {
	w := twoNodeWorld()
	w.MaxRetries = 2
	w.RetryBackoffBase = 5
	w.RetryBackoffMax = 10
	w.RetryJitter = 0
	// Three short abort windows, each timed to kill the next attempt:
	// start at 0, abort at 10 (retry at 15), abort at 20 (retry at 30),
	// abort at 40 — the third abort exceeds MaxRetries=2.
	plan := &ChaosPlan{Outages: []OutageEvent{
		{EndpointID: "dst", Start: 10, End: 12, Abort: true},
		{EndpointID: "dst", Start: 20, End: 22, Abort: true},
		{EndpointID: "dst", Start: 40, End: 42, Abort: true},
	}}
	l, st, eng := runChaos(t, w, plan, bigSpec(8e10))
	if len(l.Records) != 0 {
		t.Fatalf("abandoned transfer still produced %d records", len(l.Records))
	}
	if st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
	if st.Completed != 0 || st.Submitted != 1 {
		t.Errorf("stats %+v inconsistent with one abandoned transfer", st)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Errorf("invariants after abandonment: %v", err)
	}
}

// TestWANDegradationHalvesRate: a WAN fault scaling the path capacity
// throttles a WAN-bound transfer for the window's duration.
func TestWANDegradationHalvesRate(t *testing.T) {
	mkWorld := func() *World {
		w := twoNodeWorld()
		// Make the WAN the bottleneck: generous disks, modest path.
		for _, ep := range w.Endpoints {
			ep.DiskReadMBps = 4000
			ep.DiskWriteMBps = 4000
			ep.NICMBps = 4000
			ep.PerProcDiskMBps = 2000
		}
		return w
	}
	quiet := runOne(t, mkWorld(), bigSpec(8e10))
	quietDur := quiet.Records[0].Te - quiet.Records[0].Ts

	w := mkWorld()
	src, _ := w.Endpoint("src")
	dst, _ := w.Endpoint("dst")
	plan := &ChaosPlan{WANFaults: []WANFault{{
		SiteA: src.Site.Name, SiteB: dst.Site.Name,
		Start: 0, End: 1e6, CapFactor: 0.5,
	}}}
	l, _, _ := runChaos(t, w, plan, bigSpec(8e10))
	slowDur := l.Records[0].Te - l.Records[0].Ts
	ratio := slowDur / quietDur
	if ratio < 1.8 || ratio > 2.3 {
		t.Errorf("half-capacity WAN fault changed duration by ×%.2f, want ~×2 (%.1f s → %.1f s)",
			ratio, quietDur, slowDur)
	}
}

// TestRunContextCancellation: cancelling mid-simulation returns promptly
// with context.Canceled and leaks no goroutines (the engine is synchronous;
// the test pins that property).
func TestRunContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := SmallConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must notice on its first event
	start := time.Now()
	_, _, err := GenerateLogContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("cancelled run took %v to return", el)
	}
	// Give any stray goroutine a moment to exit, then compare.
	time.Sleep(50 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d after cancellation", before, after)
	}
}

// TestRunContextDeadline: a deadline that expires mid-run surfaces as
// context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	_, _, err := GenerateLogContext(ctx, SmallConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestChaosScenarioInvariants runs a full small workload under a dense
// mixed plan and checks the engine's self-validation plus determinism.
func TestChaosScenarioInvariants(t *testing.T) {
	cfg := SmallConfig()
	cfg.HeavyEdges = 4
	cfg.HeavyTransfersMean = 250
	cfg.TailEdges = 6
	cfg.Horizon = 4 * 24 * 3600

	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := &ChaosPlan{
		Storms: []FaultStorm{
			{Start: 3600, End: 3 * 3600, HazardFactor: 25},
			{Start: 2 * 24 * 3600, End: 2*24*3600 + 7200, HazardFactor: 40},
		},
	}
	// Outage every endpoint once, alternating stall/abort.
	for i, ep := range g.World.Endpoints {
		start := float64(6*3600 + i*1800)
		plan.Outages = append(plan.Outages, OutageEvent{
			EndpointID: ep.ID, Start: start, End: start + 900, Abort: i%2 == 0,
		})
	}
	if err := plan.Validate(g.World); err != nil {
		t.Fatal(err)
	}

	l1, st1, _, err := GenerateLogChaos(context.Background(), cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Submitted == 0 || len(l1.Records) == 0 {
		t.Fatal("chaos scenario produced an empty log")
	}
	if err := CheckLog(l1); err != nil {
		t.Fatal(err)
	}

	l2, st2, _, err := GenerateLogChaos(context.Background(), cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Errorf("stats differ across identical chaos runs: %+v vs %+v", st1, st2)
	}
	if len(l1.Records) != len(l2.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(l1.Records), len(l2.Records))
	}
	for i := range l1.Records {
		if l1.Records[i] != l2.Records[i] {
			t.Fatalf("record %d differs across identical chaos runs", i)
		}
	}
}

// TestAbandonmentKeepsChainAlive: a chain whose head is abandoned must
// not wedge the engine — the abandonment path schedules the successor
// just as a completion would.
func TestAbandonmentKeepsChainAlive(t *testing.T) {
	w := twoNodeWorld()
	w.MaxRetries = 1
	w.RetryBackoffBase = 5
	w.RetryBackoffMax = 5
	w.RetryJitter = 0
	// Two abort windows: the first kills the initial attempt (retry at ~6),
	// the second kills the retry, exceeding MaxRetries=1.
	plan := &ChaosPlan{Outages: []OutageEvent{
		{EndpointID: "src", Start: 1, End: 3, Abort: true},
		{EndpointID: "src", Start: 20, End: 22, Abort: true},
	}}
	eng := NewEngine(w, 1)
	// Two chained transfers: the first is doomed, the second must still run.
	eng.SubmitChain(
		TransferSpec{Src: "src", Dst: "dst", Start: 0, Bytes: 8e10, Files: 4, Conc: 4, Par: 4},
		TransferSpec{Src: "src", Dst: "dst", Start: 0, Bytes: 1e9, Files: 1, Conc: 4, Par: 4},
	)
	if err := eng.SetChaos(plan); err != nil {
		t.Fatal(err)
	}
	l, err := eng.Run()
	if err != nil {
		t.Fatalf("chain with abandoned head deadlocked: %v", err)
	}
	if len(l.Records) != 1 {
		t.Fatalf("got %d records, want just the chain successor", len(l.Records))
	}
	if eng.Stats().Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", eng.Stats().Abandoned)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestWedgedRunReportsDeadlock wedges a run: its only transfer waits on an
// endpoint that is down with no outage end scheduled, while background
// resamples keep producing events forever. The engine must return a
// DeadlockError carrying its state dump instead of following the
// background clock. The run sits under a context deadline, so an engine
// that spins fails this test rather than hanging the package.
func TestWedgedRunReportsDeadlock(t *testing.T) {
	w := twoNodeWorld()
	for _, ep := range w.Endpoints {
		ep.Bg = BgConfig{MaxFrac: 0.3, MeanInterval: 60}
	}
	eng := NewEngine(w, 1)
	eng.Submit(TransferSpec{Src: "src", Dst: "dst", Start: 5, Bytes: 1e9, Files: 1, Conc: 1, Par: 1})
	eng.epDown[eng.epIndex("dst")] = 1 // down for good: no end event
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := eng.RunContext(ctx)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	for _, want := range []string{"waiting=1", "endpoint dst DOWN", "waiting x0 src->dst"} {
		if !strings.Contains(dl.Error(), want) {
			t.Errorf("deadlock dump lacks %q:\n%s", want, dl.Error())
		}
	}
}
