package suite

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"waymemo/internal/stats"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// liveSpecs are the workloads of the live-pass tests: one per ISA.
var liveSpecs = []string{"synth:pchase,fp=4KiB,seed=5", "rv32:synth:stream,fp=2KiB,n=3000"}

// domainTechs returns every controller type whose domain is one of doms.
func domainTechs(doms ...Domain) []Technique {
	var out []Technique
	for _, t := range everyController() {
		for _, d := range doms {
			if t.Domain == d {
				out = append(out, t)
			}
		}
	}
	return out
}

// livePass runs one FanOut of fresh instances of techs on tc and returns
// their counters and the stats the pass added.
func livePass(t *testing.T, ctx context.Context, tc *TraceCache, w workloads.Workload, techs []Technique) ([]*stats.Counters, TraceCacheStats) {
	t.Helper()
	got, pairs := instantiateAll(t, techs)
	before := tc.Stats()
	if _, err := tc.FanOut(ctx, w, 0, pairs, 1); err != nil {
		t.Fatal(err)
	}
	return got, statsDelta(before, tc.Stats())
}

// statsDelta returns what b added to a.
func statsDelta(a, b TraceCacheStats) TraceCacheStats {
	return TraceCacheStats{
		Captures: b.Captures - a.Captures, DiskLoads: b.DiskLoads - a.DiskLoads,
		Replays: b.Replays - a.Replays, LivePasses: b.LivePasses - a.LivePasses,
		FanOutPasses: b.FanOutPasses - a.FanOutPasses, FanOutSinks: b.FanOutSinks - a.FanOutSinks,
		FanOutEvents: b.FanOutEvents - a.FanOutEvents, FanOutDeliveries: b.FanOutDeliveries - a.FanOutDeliveries,
	}
}

// liveReference returns the counters of techs after one live run of w with
// no trace cache.
func liveReference(t *testing.T, w workloads.Workload, techs []Technique) []*stats.Counters {
	t.Helper()
	ref, pairs := instantiateAll(t, techs)
	if _, _, err := Drive(context.Background(), w, 0, pairs, nil, 1); err != nil {
		t.Fatal(err)
	}
	return ref
}

// sameCounters fails t unless got and want hold equal counters.
func sameCounters(t *testing.T, what string, techs []Technique, got, want []*stats.Counters) {
	t.Helper()
	for i, tech := range techs {
		if *got[i] != *want[i] {
			t.Fatalf("%s: %s/%s counters diverge:\ngot:  %+v\nwant: %+v", what, tech.Domain, tech.ID, *got[i], *want[i])
		}
	}
}

// mustWorkload resolves a workload name or fails t.
func mustWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFanOutLivePassMatchesDecoded: a cold FanOut, fed by the execution
// that fills its capture, and a warm FanOut, which decodes the capture,
// leave every controller type with the counters of a run without a trace
// cache, on both ISAs, for data, fetch and mixed requests, and count the
// same replays, passes, sinks, events and deliveries; only the cold pass
// is live. A stream an execution records because an earlier request asked
// for it (the ride-along rule) serves a later request by decoding.
func TestFanOutLivePassMatchesDecoded(t *testing.T) {
	ctx := context.Background()
	for _, name := range liveSpecs {
		w := mustWorkload(t, name)
		for _, doms := range [][]Domain{{Data}, {Fetch}, {Data, Fetch}} {
			techs := domainTechs(doms...)
			ref := liveReference(t, w, techs)
			tc := NewTraceCache()
			cold, coldSt := livePass(t, ctx, tc, w, techs)
			sameCounters(t, name+" cold", techs, cold, ref)
			warm, warmSt := livePass(t, ctx, tc, w, techs)
			sameCounters(t, name+" warm", techs, warm, ref)
			if coldSt.Captures != 1 || coldSt.LivePasses != 1 || warmSt.Captures != 0 || warmSt.LivePasses != 0 {
				t.Fatalf("%s %v: cold pass %+v, warm pass %+v: want one live capture, then a decoded pass", name, doms, coldSt, warmSt)
			}
			coldSt.Captures, coldSt.LivePasses = 0, 0
			if coldSt != warmSt || warmSt.FanOutPasses != 1 || warmSt.FanOutEvents == 0 {
				t.Fatalf("%s %v: cold pass counts %+v, warm pass %+v", name, doms, coldSt, warmSt)
			}
		}

		// Once the cache has served a fetch request, a data request's
		// execution also records the fetch stream: the data pass is live,
		// and the fetch request after it decodes the recorded stream.
		tc := NewTraceCache()
		if _, err := tc.FanOut(ctx, mustWorkload(t, "synth:hotloop,fp=1KiB,n=1024"), 0,
			[]trace.SinkPair{{Fetch: trace.FetchFunc(func(trace.FetchEvent) {})}}, 1); err != nil {
			t.Fatal(err)
		}
		for _, dom := range []Domain{Data, Fetch} {
			techs := domainTechs(dom)
			got, st := livePass(t, ctx, tc, w, techs)
			sameCounters(t, name+" ride-along "+dom.String(), techs, got, liveReference(t, w, techs))
			if live := dom == Data; st.Captures != st.LivePasses || (st.LivePasses == 1) != live {
				t.Fatalf("%s: %s request after a fetch request: %+v, want live %v", name, dom, st, live)
			}
		}
	}
}

// TestFanOutLiveWaiterReplays: a request that arrives while another's
// execution fills the capture waits for it and decodes, while the filler's
// own pass rides the execution; both see the counters of a run without a
// trace cache. Run it under -race: the waiter must not read the capture
// before the filler is done with it.
func TestFanOutLiveWaiterReplays(t *testing.T) {
	ctx := context.Background()
	w := mustWorkload(t, liveSpecs[0])
	techs := domainTechs(Data, Fetch)
	ref := liveReference(t, w, techs)
	tc := NewTraceCache()

	var wg sync.WaitGroup
	var waiterErr error
	var once sync.Once
	filler, pairs := instantiateAll(t, techs)
	waiter, waiterPairs := instantiateAll(t, techs)
	// The first block the filler's execution delivers starts the waiter.
	// The fill is in flight from then on, so the waiter finds its entries
	// and decodes whenever it gets to run; the pause only makes it likely
	// that its wait overlaps the execution.
	first := trace.SinkPair{Data: trace.DataFunc(func(trace.DataEvent) {
		once.Do(func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, waiterErr = tc.FanOut(ctx, w, 0, waiterPairs, 1)
			}()
			time.Sleep(20 * time.Millisecond)
		})
	})}
	if _, err := tc.FanOut(ctx, w, 0, append(pairs, first), 1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if waiterErr != nil {
		t.Fatal(waiterErr)
	}
	sameCounters(t, "filler", techs, filler, ref)
	sameCounters(t, "waiter", techs, waiter, ref)
	if st := tc.Stats(); st.Captures != 1 || st.FanOutPasses != 2 || st.LivePasses != 1 {
		t.Fatalf("stats %+v: want one capture, two passes, one of them live", st)
	}
}

// TestFanOutHeldStreamReplays: a request that finds one of its streams
// already held fills only the other, and then decodes both: its pass is
// not live, and its sinks see each event once.
func TestFanOutHeldStreamReplays(t *testing.T) {
	ctx := context.Background()
	for _, name := range liveSpecs {
		w := mustWorkload(t, name)
		tc := NewTraceCache()
		data := domainTechs(Data)
		got, st := livePass(t, ctx, tc, w, data)
		sameCounters(t, name+" data", data, got, liveReference(t, w, data))
		if st.LivePasses != 1 {
			t.Fatalf("%s: the first data request was not live: %+v", name, st)
		}
		both := domainTechs(Data, Fetch)
		got, st = livePass(t, ctx, tc, w, both)
		sameCounters(t, name+" both", both, got, liveReference(t, w, both))
		if st.Captures != 1 || st.LivePasses != 0 {
			t.Fatalf("%s: a request with the data stream held: %+v, want one capture and a decoded pass", name, st)
		}
	}
}

// TestFanOutLiveFailedExecution: a live pass whose execution fails —
// cancelled by a sink, or out of its instruction budget — returns the
// error, records nothing and counts no pass; a retry with fresh sinks sees
// the counters of a run without a trace cache.
func TestFanOutLiveFailedExecution(t *testing.T) {
	// The simulator checks its context every 2^20 instructions, so the
	// workload runs well past that after its first data block.
	w := mustWorkload(t, "rv32:synth:stream,fp=2KiB,n=200000")
	techs := domainTechs(Data)
	ref := liveReference(t, w, techs)
	tc := NewTraceCache()

	ctx, cancel := context.WithCancel(context.Background())
	_, pairs := instantiateAll(t, techs)
	pairs = append(pairs, trace.SinkPair{Data: trace.DataFunc(func(trace.DataEvent) { cancel() })})
	if _, err := tc.FanOut(ctx, w, 0, pairs, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled live pass: err = %v, want context.Canceled", err)
	}
	short := w
	short.MaxInstrs = 1000
	_, pairs = instantiateAll(t, techs)
	if _, err := tc.FanOut(context.Background(), short, 0, pairs, 1); err == nil {
		t.Fatal("a live pass out of its instruction budget succeeded")
	}
	if st := tc.Stats(); st != (TraceCacheStats{}) {
		t.Fatalf("failed executions left stats %+v", st)
	}

	got, st := livePass(t, context.Background(), tc, w, techs)
	sameCounters(t, "retry", techs, got, ref)
	if st.Captures != 1 || st.LivePasses != 1 {
		t.Fatalf("retry: %+v, want one live capture", st)
	}
}

// TestFanOutSpillReloadReplays: a request a spill file serves decodes it,
// and counts no live pass.
func TestFanOutSpillReloadReplays(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, liveSpecs[0])
	techs := domainTechs(Data, Fetch)
	ref := liveReference(t, w, techs)
	for i, want := range []TraceCacheStats{{Captures: 1, LivePasses: 1}, {DiskLoads: 1}} {
		tc, err := NewDirTraceCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, st := livePass(t, ctx, tc, w, techs)
		sameCounters(t, "spill", techs, got, ref)
		if st.Captures != want.Captures || st.DiskLoads != want.DiskLoads || st.LivePasses != want.LivePasses {
			t.Fatalf("process %d: %+v, want %+v", i, st, want)
		}
	}
}
