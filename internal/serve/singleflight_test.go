package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waymemo/internal/explore"
)

// TestFlightGroupSingleExecution: K concurrent callers claim the same key
// while its owner is still working; exactly one owns it, and every other
// caller receives the owner's result once it settles.
func TestFlightGroupSingleExecution(t *testing.T) {
	var g flightGroup
	const K = 16
	var owners atomic.Int64
	var claimed sync.WaitGroup
	gate := make(chan struct{})
	want := &explore.PointResult{Workload: "w", Cycles: 42}

	var wg sync.WaitGroup
	claimed.Add(K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, owner := g.claim("k")
			claimed.Done()
			if owner {
				owners.Add(1)
				<-gate
				g.settle("k", want, nil)
				return
			}
			pr, err := f.wait(context.Background())
			if err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if pr != want {
				t.Errorf("got %p, want %p", pr, want)
			}
		}()
	}
	// Every caller has claimed before the owner may settle, so none of
	// them can have found the key free after a settle.
	claimed.Wait()
	close(gate)
	wg.Wait()
	if got := owners.Load(); got != 1 {
		t.Errorf("%d callers owned the key, want 1", got)
	}
	if n := g.inFlight(); n != 0 {
		t.Errorf("inFlight after completion = %d, want 0", n)
	}
}

// TestFlightGroupErrorNotSticky: a failed flight must be forgotten, not
// poison its key for later callers.
func TestFlightGroupErrorNotSticky(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	f, owner := g.claim("k")
	if !owner {
		t.Fatal("first claim does not own the key")
	}
	g.settle("k", nil, boom)
	if _, err := f.wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("settled flight: err=%v, want boom", err)
	}
	want := &explore.PointResult{Workload: "w"}
	f, owner = g.claim("k")
	if !owner {
		t.Fatal("claim after a failed flight does not own the key")
	}
	g.settle("k", want, nil)
	if pr, err := f.wait(context.Background()); err != nil || pr != want {
		t.Fatalf("retry after error: pr=%p err=%v, want fresh owner's success", pr, err)
	}
}

// TestFlightGroupJoinerCancel: a joiner's cancelled context releases the
// joiner without touching the flight other callers wait on.
func TestFlightGroupJoinerCancel(t *testing.T) {
	var g flightGroup
	want := &explore.PointResult{Workload: "w"}
	if _, owner := g.claim("k"); !owner {
		t.Fatal("first claim does not own the key")
	}
	f, owner := g.claim("k")
	if owner {
		t.Fatal("second claim owns a claimed key")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner: err=%v, want context.Canceled", err)
	}

	waited := make(chan *explore.PointResult, 1)
	go func() {
		pr, _ := f.wait(context.Background())
		waited <- pr
	}()
	time.Sleep(10 * time.Millisecond)
	g.settle("k", want, nil)
	if pr := <-waited; pr != want {
		t.Fatalf("joiner after another joiner's cancel got %p, want %p", pr, want)
	}
}
