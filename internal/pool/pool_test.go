package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, par := range []int{0, 1, 3, 100} {
		var hits [17]atomic.Int32
		err := Run(context.Background(), len(hits), par, func(ctx context.Context, idx int) error {
			hits[idx].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("par=%d: index %d ran %d times", par, i, got)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	if err := Run(context.Background(), 0, 4, func(context.Context, int) error {
		t.Error("fn called with no jobs")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	err := Run(context.Background(), 1000, 1, func(ctx context.Context, idx int) error {
		started.Add(1)
		if idx == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Sequential pool: indices 0-3 run, the failure cancels, the rest drain.
	if got := started.Load(); got != 4 {
		t.Errorf("%d jobs started, want 4", got)
	}
}

func TestRunCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := Run(ctx, 5, 2, func(context.Context, int) error { called = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn ran under a pre-cancelled context")
	}
}

func TestRunBoundsParallelism(t *testing.T) {
	var cur, peak atomic.Int32
	err := Run(context.Background(), 64, 3, func(ctx context.Context, idx int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Errorf("peak concurrency %d exceeds par=3", peak.Load())
	}
}

// TestRunPanicContained: a panicking job must surface as a typed PanicError
// carrying the job index and a stack, cancel the remaining jobs like any
// other failure, and never escape Run — one poisoned work item cannot take
// the process down.
func TestRunPanicContained(t *testing.T) {
	err := Run(context.Background(), 100, 2, func(ctx context.Context, idx int) error {
		if idx == 0 {
			panic("poisoned item")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want a *PanicError", err)
	}
	if pe.Index != 0 || pe.Value != "poisoned item" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {Index: %d, Value: %v, stack %d bytes}", pe.Index, pe.Value, len(pe.Stack))
	}
	if want := "pool: job 0 panicked: poisoned item"; err.Error() != want {
		t.Fatalf("error text %q, want %q", err.Error(), want)
	}
}
