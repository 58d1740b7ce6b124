package serve

import (
	"context"
	"sync"

	"waymemo/internal/explore"
)

// flightGroup deduplicates concurrent work on the same grid-point key: the
// first sweep to claim a key simulates it, and every sweep that asks for
// the key while it is claimed waits on the claimant's outcome. The key is
// explore.KeyWorkload's content hash, so N clients sweeping overlapping
// grids cost one simulation per unique point, however they interleave. A
// flight is forgotten once settled — the durable copy of a result lives in
// the Store — so one transient failure never poisons a key.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one claimed key. done closes when val/err are final.
type flight struct {
	key  string
	done chan struct{}
	val  *explore.PointResult
	err  error
}

// claim returns the flight for key and whether the caller now owns it. An
// owner must settle the flight exactly once; everyone else waits on it.
func (g *flightGroup) claim(key string) (f *flight, owner bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	if g.m == nil {
		g.m = map[string]*flight{}
	}
	f = &flight{key: key, done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// settle publishes the owner's outcome for key to every waiter and forgets
// the flight.
func (g *flightGroup) settle(key string, pr *explore.PointResult, err error) {
	g.mu.Lock()
	f := g.m[key]
	delete(g.m, key)
	g.mu.Unlock()
	f.val, f.err = pr, err
	close(f.done)
}

// wait blocks until the flight settles or ctx ends; a cancelled waiter
// leaves the flight alone. An owner's failure reaches every waiter as a
// *PointError with Joined set — retryable (but for daemon shutdown), since
// a resubmitted sweep claims a fresh flight. A waiter's own ctx expiry
// stays unwrapped: that failure is the waiter's, not the flight's.
func (f *flight) wait(ctx context.Context) (*explore.PointResult, error) {
	select {
	case <-f.done:
		if f.err != nil {
			return nil, &PointError{Key: f.key, Joined: true, Err: f.err}
		}
		return f.val, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// inFlight returns the number of keys currently claimed.
func (g *flightGroup) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
