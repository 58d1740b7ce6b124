package serve

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// PointError is a sweep failure localized to one grid point: which key
// failed, whether this sweep merely joined another sweep's flight on it, and
// the underlying cause. It is the typed form clients retry on — almost every
// point failure (an injected I/O error, a leader that died mid-simulation,
// disk full) clears on a resubmit because grid points are content-keyed and
// idempotent, so Retryable defaults to true; only a daemon-shutdown
// cancellation is terminal.
type PointError struct {
	// Key is the grid point's content hash (explore.KeyWorkload).
	Key string
	// Joined is true when this sweep was a singleflight joiner: the failure
	// happened in another sweep's leader, and a retry will simply lead (or
	// join) a fresh flight.
	Joined bool
	// Err is the underlying failure.
	Err error
}

func (e *PointError) Error() string {
	who := "point"
	if e.Joined {
		who = "joined point"
	}
	return fmt.Sprintf("serve: %s %.12s: %v", who, e.Key, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// Retryable reports whether resubmitting the sweep can succeed. Everything
// but the daemon's own shutdown cancellation is worth retrying: the store
// degrades corrupt entries to re-simulations, failed flights are forgotten,
// and keys are idempotent.
func (e *PointError) Retryable() bool {
	return !errors.Is(e.Err, context.Canceled)
}

// OverloadError is admission control shedding a sweep: the daemon's point
// backlog is full (or it is draining for shutdown) and the sweep was
// rejected before any work happened. Always retryable — the HTTP layer maps
// it to 429 (or 503 when draining) with a Retry-After header.
type OverloadError struct {
	// Backlog is the number of unfinished admitted points at rejection time.
	Backlog int64
	// Draining is true when the daemon is shutting down rather than busy.
	Draining bool
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	if e.Draining {
		return "serve: draining for shutdown, not accepting sweeps"
	}
	return fmt.Sprintf("serve: overloaded (%d points queued), sweep shed", e.Backlog)
}

// retryDetails extracts the client-facing retry contract from a job error:
// whether a resubmit can succeed and how long to wait first.
func retryDetails(err error) (retryable bool, retryAfter time.Duration) {
	var pe *PointError
	if errors.As(err, &pe) {
		return pe.Retryable(), 0
	}
	var oe *OverloadError
	if errors.As(err, &oe) {
		return true, oe.RetryAfter
	}
	return false, 0
}
