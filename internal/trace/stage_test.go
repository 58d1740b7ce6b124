package trace

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestStagerDelivery: a stager hands every sink each stream in order, in
// full stageLen blocks plus the tail Flush delivers, whether the streams
// end below, at or one past a block boundary; per-event function adapters
// get the same streams.
func TestStagerDelivery(t *testing.T) {
	for _, n := range []int{0, 1, stageLen - 1, stageLen, stageLen + 1, 3*stageLen + 17} {
		r := rand.New(rand.NewSource(int64(n)))
		var native, perEvent, fetchOnly eventLog
		st := NewStager([]SinkPair{
			{Fetch: &native, Data: &native},
			perEvent.perEvent(),
			{Fetch: &fetchOnly},
		})
		wantF, wantD := make([]FetchEvent, n), make([]DataEvent, n)
		for i := range n {
			wantF[i], wantD[i] = randFetch(r), randData(r)
			*st.NextFetch() = wantF[i]
			*st.NextData() = wantD[i]
		}
		st.Flush()

		for _, got := range [][]FetchEvent{native.Fetches, perEvent.Fetches, fetchOnly.Fetches} {
			if !slices.Equal(got, wantF) {
				t.Fatalf("n=%d: fetch stream of %d events, want the %d staged", n, len(got), len(wantF))
			}
		}
		for _, got := range [][]DataEvent{native.Datas, perEvent.Datas} {
			if !slices.Equal(got, wantD) {
				t.Fatalf("n=%d: data stream of %d events, want the %d staged", n, len(got), len(wantD))
			}
		}
		if len(fetchOnly.Datas) != 0 {
			t.Fatalf("n=%d: a fetch-only sink received data events", n)
		}
		for _, blocks := range [][]int{native.fetchBlocks, native.dataBlocks} {
			for i, m := range blocks {
				if m == 0 || m > stageLen || (m != stageLen && i != len(blocks)-1) {
					t.Fatalf("n=%d: block sizes %v", n, blocks)
				}
			}
		}
	}
}

// TestStagerSinksPerStream: a stream no pair consumes is not reported by
// Streams, so the simulator skips building its events.
func TestStagerSinksPerStream(t *testing.T) {
	var l eventLog
	st := NewStager([]SinkPair{{Data: &l}})
	if f, d := st.Streams(); f || !d {
		t.Fatalf("data-only stager: streams %v, %v", f, d)
	}
	st.Flush()
	st = NewStager(nil)
	if f, d := st.Streams(); f || d {
		t.Fatalf("empty stager: streams %v, %v", f, d)
	}
	st.Flush()
	st = NewCaptureStreams(new(Buffer), nil, nil)
	if f, d := st.Streams(); !f || d {
		t.Fatalf("fetch-only capture stager: streams %v, %v", f, d)
	}
	st.Flush()
}

// TestCaptureStagerMatchesPerEvent: recording a stream through a capture
// stager, block by block, yields the same buffer as appending the same
// events one by one — the same streams, so the same WMTRACE4 bytes —
// across block and chunk boundaries. So does recording each stream into a
// buffer of its own and joining the two, while the same stager hands
// every block to a pair's sinks, which see each stream whole and in order.
func TestCaptureStagerMatchesPerEvent(t *testing.T) {
	for _, n := range []int{0, 1, stageLen + 1, chunkLen + 3*stageLen + 5} {
		r := rand.New(rand.NewSource(int64(n)))
		var perEvent, staged, fetches, datas Buffer
		var live, dataOnly eventLog
		st := NewCapture(&staged)
		apart := NewCaptureStreams(&fetches, &datas, []SinkPair{{Fetch: &live, Data: &live}, {Data: &dataOnly}})
		var wantF []FetchEvent
		var wantD []DataEvent
		for range n {
			if r.Intn(3) == 0 {
				ev := randData(r)
				perEvent.OnData(ev)
				wantD = append(wantD, ev)
				*st.NextData(), *apart.NextData() = ev, ev
			} else {
				ev := randFetch(r)
				perEvent.OnFetch(ev)
				wantF = append(wantF, ev)
				*st.NextFetch(), *apart.NextFetch() = ev, ev
			}
		}
		st.Flush()
		apart.Flush()
		if !slices.Equal(live.Fetches, wantF) || !slices.Equal(live.Datas, wantD) ||
			!slices.Equal(dataOnly.Datas, wantD) || len(dataOnly.Fetches) != 0 {
			t.Fatalf("n=%d: the capture stager's pairs saw %d/%d fetch and %d/%d data events, want %d and %d",
				n, len(live.Fetches), len(dataOnly.Fetches), len(live.Datas), len(dataOnly.Datas), len(wantF), len(wantD))
		}
		var want bytes.Buffer
		if _, err := perEvent.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if fetches.NumDatas() != 0 || datas.NumFetches() != 0 {
			t.Fatalf("n=%d: one-stream buffers hold %d data and %d fetch events", n, fetches.NumDatas(), datas.NumFetches())
		}
		for name, b := range map[string]*Buffer{"capture stager": &staged, "joined streams": Join(&fetches, &datas)} {
			var got bytes.Buffer
			if _, err := b.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if b.Len() != n || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d: %s wrote %d events, %d bytes; per-event %d bytes differ",
					n, name, b.Len(), got.Len(), want.Len())
			}
		}
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// at most want within a second: a stager's pair goroutines have called
// Done when Flush or Discard returns, but may not have exited yet.
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

// panicSink panics on the block that holds its trigger'th event.
type panicSink struct{ seen, trigger int }

func (p *panicSink) OnFetchBatch(evs []FetchEvent) { p.take(len(evs)) }

func (p *panicSink) OnDataBatch(evs []DataEvent) { p.take(len(evs)) }

func (p *panicSink) take(n int) {
	if p.seen += n; p.seen >= p.trigger {
		panic("sink fault")
	}
}

// catchSinkPanic runs fn and returns the *SinkPanic it panics with, or
// nil when it returns.
func catchSinkPanic(t *testing.T, fn func()) (sp *SinkPanic) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			if sp, ok = v.(*SinkPanic); !ok {
				t.Fatalf("panicked with %T %v, want a *SinkPanic", v, v)
			}
		}
	}()
	fn()
	return nil
}

// TestStagerEnds: whether a run ends with Flush, with Discard or with a
// sink's panic, no goroutine of the stager outlives it. Flush delivers the
// tails; Discard drops them, and every pair has seen the same whole blocks.
// A sink's panic comes back on the producer's goroutine as a *SinkPanic
// carrying the sink's value and a stack that names the sink, at the next
// block handed over or, when it was the last, at Flush; the pairs that did
// not panic keep their streams.
func TestStagerEnds(t *testing.T) {
	const n = 2*ringDepth*stageLen + 5
	stage := func(st *Stager) {
		for i := range n {
			*st.NextFetch() = FetchEvent{Addr: uint32(i) * 8}
			*st.NextData() = DataEvent{Addr: uint32(i) * 4}
		}
	}
	for _, end := range []string{"flush", "discard"} {
		start := runtime.NumGoroutine()
		var a, b, c eventLog
		st := NewStager([]SinkPair{{Fetch: &a, Data: &a}, {Fetch: &b}, {Data: &c}})
		stage(st)
		want := n
		if end == "flush" {
			st.Flush()
		} else {
			st.Discard()
			want = n / stageLen * stageLen
		}
		st.Discard() // an ended stager does nothing
		st.Flush()
		if len(a.Fetches) != want || len(b.Fetches) != want || len(a.Datas) != want || len(c.Datas) != want {
			t.Fatalf("%s: pairs saw %d/%d fetch and %d/%d data events, want %d each",
				end, len(a.Fetches), len(b.Fetches), len(a.Datas), len(c.Datas), want)
		}
		waitGoroutines(t, start)
	}

	for _, trigger := range []int{1, stageLen + 1, n} {
		start := runtime.NumGoroutine()
		var ok eventLog
		st := NewStager([]SinkPair{{Fetch: &ok}, {Data: &panicSink{trigger: trigger}}})
		sp := catchSinkPanic(t, func() {
			defer st.Discard()
			stage(st)
			st.Flush()
		})
		if sp == nil || sp.PanicValue() != "sink fault" || !strings.Contains(string(sp.PanicStack()), "(*panicSink).take") {
			t.Fatalf("trigger %d: producer got %v, want the sink's panic with its stack", trigger, sp)
		}
		// The producer takes the panicking block's slot back ringDepth
		// blocks later, after the panic was kept.
		if trigger < n-ringDepth*stageLen && len(ok.Fetches) == n {
			t.Fatalf("trigger %d: the panic surfaced only at Flush, not at a handoff", trigger)
		}
		waitGoroutines(t, start)
	}
}

// TestReplayAllPairsSeeSameBlocks: every pair of a ReplayAll pass sees the
// same blocks, whether the pass completes or a sink cancels it at any
// point (a cancel in the last batch comes too late to stop anything), and
// no goroutine outlives the pass; a sink's panic panics again in
// ReplayAll's caller.
func TestReplayAllPairsSeeSameBlocks(t *testing.T) {
	var b Buffer
	const total = 5*batchLen + 17
	for i := range total {
		b.OnData(DataEvent{Addr: uint32(i) * 4})
	}
	for _, at := range []int{-1, 0, 1, stageLen, batchLen - 1, batchLen + stageLen + 3, total - 1} {
		start := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var logs [4]eventLog
		pairs := []SinkPair{{Data: &logs[0]}, {Data: &logs[1]}, {Data: &logs[2]},
			{Data: DataFunc(func(ev DataEvent) {
				if int(ev.Addr/4) == at {
					cancel()
				}
				logs[3].Datas = append(logs[3].Datas, ev)
			})}}
		err := b.ReplayAll(ctx, pairs)
		cancel()
		if late := at < 0 || at >= total/batchLen*batchLen; late != (err == nil) ||
			(err != nil && !errors.Is(err, context.Canceled)) {
			t.Fatalf("cancel at %d: err = %v", at, err)
		}
		for i := range logs {
			if got := len(logs[i].Datas); got != len(logs[0].Datas) || (at < 0 && got != total) {
				t.Fatalf("cancel at %d: pair %d saw %d events, pair 0 %d of %d", at, i, got, len(logs[0].Datas), total)
			}
		}
		waitGoroutines(t, start)
	}

	start := runtime.NumGoroutine()
	var ok eventLog
	sp := catchSinkPanic(t, func() {
		b.ReplayAll(context.Background(), []SinkPair{{Data: &ok}, {Data: &panicSink{trigger: batchLen}}})
	})
	if sp == nil || sp.PanicValue() != "sink fault" {
		t.Fatalf("ReplayAll's caller got %v, want the sink's panic", sp)
	}
	waitGoroutines(t, start)
}
