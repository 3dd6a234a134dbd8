package pool

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestRegistry attaches a fresh metrics registry for one test.
func newTestRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	SetMetrics(reg)
	t.Cleanup(func() { SetMetrics(nil) })
	return reg
}

// TestForEachPanicBecomesError proves a panicking task is converted into
// a *PanicError instead of killing the process, for both the serial and
// the parallel path.
func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), 8, workers, func(_ context.Context, i int) error {
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Index != 3 {
			t.Errorf("workers=%d: panic index %d, want 3", workers, pe.Index)
		}
		if pe.Value != "boom" {
			t.Errorf("workers=%d: panic value %v, want boom", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panic_test") {
			t.Errorf("workers=%d: stack does not mention the test: %.120s", workers, pe.Stack)
		}
		if !strings.Contains(pe.Error(), "task 3 panicked: boom") {
			t.Errorf("workers=%d: Error() = %.120s", workers, pe.Error())
		}
	}
}

// TestForEachPanicPrefersLowestIndex pins the error-priority contract:
// when several tasks panic, the reported one has the lowest index among
// observed failures, and a real panic beats the cancellations it caused.
func TestForEachPanicPrefersLowestIndex(t *testing.T) {
	err := ForEach(context.Background(), 2, 2, func(_ context.Context, i int) error {
		panic(i)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Index != 0 {
		t.Errorf("panic index %d, want 0", pe.Index)
	}
}

// TestForEachPanicStopsNewWork checks that after a panic no new items are
// started (the cancellation path treats it like any other failure). Every
// item but 0 blocks until the pool cancels its context, so no worker can
// run ahead of item 0's panic: at most one item per worker ever starts.
func TestForEachPanicStopsNewWork(t *testing.T) {
	var started atomic.Int64
	const n, workers = 10000, 2
	err := ForEach(context.Background(), n, workers, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			panic("first")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			t.Errorf("item %d: context not cancelled 10s after item 0 panicked", i)
			return nil
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if got := started.Load(); got > workers {
		t.Errorf("%d items started despite early panic, want at most %d (one per worker)", got, workers)
	}
}

// TestDoPanicSurfacesOnCaller proves Do rethrows a worker panic on the
// calling goroutine as a *PanicError, where a deferred recover — like the
// per-request isolation in internal/serve — can catch it. Without the
// recovery inside the pool the panic would be fatal on the anonymous
// worker goroutine and this test process would die.
func TestDoPanicSurfacesOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				pe, ok := v.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %v, want *PanicError", workers, v)
				}
				if pe.Index != 2 || pe.Value != "kaboom" {
					t.Errorf("workers=%d: got index=%d value=%v", workers, pe.Index, pe.Value)
				}
			}()
			Do(8, workers, func(i int) {
				if i == 2 {
					panic("kaboom")
				}
			})
			t.Fatalf("workers=%d: Do returned normally", workers)
		}()
	}
}

// TestDoPanicReportsLowestIndex: with every task panicking, the rethrown
// error carries the lowest index any worker observed, and remaining items
// are skipped.
func TestDoPanicReportsLowestIndex(t *testing.T) {
	var ran atomic.Int64
	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %v, want *PanicError", v)
		}
		if pe.Index < 0 || pe.Index >= 4 {
			t.Errorf("index %d out of range", pe.Index)
		}
		if got := ran.Load(); got > 4 {
			t.Errorf("%d items ran after first panic with 4 workers", got)
		}
	}()
	Do(10000, 4, func(i int) {
		ran.Add(1)
		panic(i)
	})
	t.Fatal("Do returned normally")
}

// TestPoolBalancedAfterPanic proves the pool's metrics stay balanced when
// tasks panic: every started task is also ended, so the busy-worker gauge
// returns to zero and later batches run normally.
func TestPoolBalancedAfterPanic(t *testing.T) {
	reg := newTestRegistry(t)
	_ = ForEach(context.Background(), 4, 2, func(_ context.Context, i int) error {
		panic("x")
	})
	if v := reg.Gauge("pool.busy_workers").Value(); v != 0 {
		t.Errorf("busy workers %v after panicking batch, want 0", v)
	}
	// The pool still works.
	var ok atomic.Int64
	if err := ForEach(context.Background(), 8, 4, func(_ context.Context, i int) error {
		ok.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("clean batch after panic: %v", err)
	}
	if ok.Load() != 8 {
		t.Errorf("clean batch ran %d items, want 8", ok.Load())
	}
}
