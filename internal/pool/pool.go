// Package pool provides the indexed worker pool shared by the suite
// runner (internal/suite) and the design-space explorer (internal/explore):
// N independent jobs fan out over a bounded set of workers, the first
// failure cancels the rest, and job identity is an index so callers write
// results into pre-sized slices — deterministic output order at any
// parallelism level.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is a job that panicked: Run recovers it inside the worker,
// cancels the remaining jobs and returns this typed error instead of
// letting one bad job take down the whole process — a daemon serving many
// sweeps must survive a single poisoned grid point.
type PanicError struct {
	Index int    // the job index that panicked
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job %d panicked: %v", e.Index, e.Value)
}

// forwarded is a panic raised again on the job's goroutine after it was
// recovered on another one, as trace.Stager does with a sink's panic. The
// job reports the original value and stack, which names the frame that
// panicked where the job's own stack does not.
type forwarded interface {
	PanicValue() any
	PanicStack() []byte
}

// call runs one job invocation with panic containment.
func call(ctx context.Context, idx int, fn func(ctx context.Context, idx int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Index: idx, Value: v, Stack: debug.Stack()}
			if f, ok := v.(forwarded); ok {
				pe.Value, pe.Stack = f.PanicValue(), f.PanicStack()
			}
			err = pe
		}
	}()
	return fn(ctx, idx)
}

// Run invokes fn(ctx, idx) for every idx in [0, n), at most par
// concurrently (par <= 0 selects GOMAXPROCS; par is clamped to n). The
// context passed to fn is cancelled as soon as any invocation returns an
// error or the caller's context ends; indices not yet started are then
// skipped. Run blocks until all started invocations return, then reports
// the first error encountered, or ctx.Err() when the caller's context
// ended first. A panicking invocation is recovered and surfaces as a
// *PanicError for that index; it cancels the rest like any other failure.
func Run(ctx context.Context, n, par int, fn func(ctx context.Context, idx int) error) error {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if runCtx.Err() != nil {
					continue // drain: a job failed or the caller cancelled
				}
				if err := call(runCtx, idx, fn); err != nil {
					fail(err)
				}
			}
		}()
	}
	for idx := 0; idx < n; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
