package suite

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"waymemo/internal/cache"
	"waymemo/internal/pool"
	"waymemo/internal/power"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// at most want within a second.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for range 100 {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%d goroutines outlive the run, want at most %d", runtime.NumGoroutine(), want)
}

// loopWorkload loads one word n times, n/1024 staged data blocks, and
// then runs end: halt, or an instruction that fails the run.
func loopWorkload(name string, n int, end string, maxInstrs uint64) workloads.Workload {
	return workloads.Workload{Name: name, MaxInstrs: maxInstrs, Sources: []string{fmt.Sprintf(`
main:	la   t0, data
	li   t1, %d
loop:	lw   t2, 0(t0)
	addi t1, t1, -1
	bnez t1, loop
	%s
	.org 0x100000
data:	.space 16
`, n, end)}}
}

// blockCount counts the blocks of each stream a pair is handed, and can
// cancel the run at its first data block.
type blockCount struct {
	fetch, data int
	cancel      context.CancelFunc
}

func (b *blockCount) OnFetchBatch([]trace.FetchEvent) { b.fetch++ }

func (b *blockCount) OnDataBatch([]trace.DataEvent) {
	if b.data++; b.cancel != nil {
		b.cancel()
	}
}

// TestDriveEndsItsRun: a live run and a trace cache's pass, on success and
// on each way a run fails — a simulator error, a cancelled ctx and an
// exhausted instruction budget — leave no goroutine behind, and every pair
// of the run has seen the same number of blocks of each stream.
func TestDriveEndsItsRun(t *testing.T) {
	cases := []struct {
		name   string
		w      workloads.Workload
		cancel bool
		fails  bool
	}{
		{"success", loopWorkload("loop-halt", 6000, "halt", 0), false, false},
		{"simulator error", loopWorkload("loop-unaligned", 6000, "li t3, 0x10002\n\tjr t3", 0), false, true},
		// The simulator checks ctx between slices of instructions, so the
		// cancelled run is long enough to see it.
		{"cancelled", loopWorkload("loop-cancel", 1<<22, "halt", 0), true, true},
		{"budget", loopWorkload("loop-budget", 6000, "halt", 15000), false, true},
	}
	for _, c := range cases {
		for _, tc := range []*TraceCache{nil, NewTraceCache()} {
			start := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			counts := make([]blockCount, 4)
			if c.cancel {
				counts[3].cancel = cancel
			}
			pairs := make([]trace.SinkPair, len(counts))
			for i := range counts {
				pairs[i] = trace.SinkPair{Fetch: &counts[i], Data: &counts[i]}
			}
			_, _, err := Drive(ctx, c.w, 0, pairs, tc, 1)
			cancel()
			if (err != nil) != c.fails {
				t.Fatalf("%s (trace cache %v): err = %v", c.name, tc != nil, err)
			}
			if c.cancel && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s (trace cache %v): err = %v, want context.Canceled", c.name, tc != nil, err)
			}
			for i, n := range counts {
				if n.fetch != counts[0].fetch || n.data != counts[0].data {
					t.Fatalf("%s (trace cache %v): pair %d saw %d/%d blocks, pair 0 %d/%d",
						c.name, tc != nil, i, n.fetch, n.data, counts[0].fetch, counts[0].data)
				}
			}
			// 6000 loads are five full blocks and a tail, the run out of
			// budget staged four full blocks, and a failed run's tail is
			// dropped.
			if want := map[string]int{"success": 6, "simulator error": 5, "budget": 4}[c.name]; counts[0].data < want {
				t.Fatalf("%s (trace cache %v): %d data blocks, want %d", c.name, tc != nil, counts[0].data, want)
			}
			waitGoroutines(t, start)
		}
	}
}

// faultySink panics on its second data block.
type faultySink struct{ blocks int }

func (f *faultySink) OnDataBatch([]trace.DataEvent) {
	if f.blocks++; f.blocks == 2 {
		panic("faulty sink")
	}
}

// TestSinkPanicIsPanicError: a sink that panics on its pair's goroutine
// fails Run, live and through a trace cache, with the *pool.PanicError the
// panic would have made in line: the sink's value, and a stack that names
// the sink's frame. The process survives, and no goroutine outlives Run.
func TestSinkPanicIsPanicError(t *testing.T) {
	faulty := Technique{ID: "faulty", Domain: Data, New: func(cache.Config) Instance {
		return Instance{Data: new(faultySink), Stats: new(stats.Counters), Model: power.Model{}}
	}}
	for _, opts := range [][]Option{nil, {WithTraceCache(NewTraceCache())}} {
		start := runtime.NumGoroutine()
		_, err := Run(context.Background(), append(opts,
			WithWorkloads(loopWorkload("loop-halt", 6000, "halt", 0)),
			WithTechniques(MustLookup(Data, DOrig), faulty))...)
		var pe *pool.PanicError
		if !errors.As(err, &pe) || pe.Value != "faulty sink" || !strings.Contains(string(pe.Stack), "(*faultySink).OnDataBatch") {
			t.Fatalf("Run with a panicking sink: err = %v, want a *pool.PanicError naming the sink", err)
		}
		waitGoroutines(t, start)
	}
}
