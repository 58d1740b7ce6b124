package trace

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// eventLog records the streams it is handed, remembering block sizes.
type eventLog struct {
	Fetches     []FetchEvent
	Datas       []DataEvent
	fetchBlocks []int
	dataBlocks  []int
}

func (l *eventLog) OnFetchBatch(evs []FetchEvent) {
	l.fetchBlocks = append(l.fetchBlocks, len(evs))
	l.Fetches = append(l.Fetches, evs...)
}

func (l *eventLog) OnDataBatch(evs []DataEvent) {
	l.dataBlocks = append(l.dataBlocks, len(evs))
	l.Datas = append(l.Datas, evs...)
}

// perEvent returns a sink pair that records into l one event at a time,
// through the FetchFunc and DataFunc adapters.
func (l *eventLog) perEvent() SinkPair {
	return SinkPair{
		Fetch: FetchFunc(func(ev FetchEvent) { l.Fetches = append(l.Fetches, ev) }),
		Data:  DataFunc(func(ev DataEvent) { l.Datas = append(l.Datas, ev) }),
	}
}

// checkFetchStream fails the test unless the sink saw exactly the buffer's
// fetch stream, in order.
func checkFetchStream(t *testing.T, b *Buffer, got []FetchEvent) {
	t.Helper()
	want := b.Fetches()
	if len(got) != len(want) {
		t.Fatalf("fetch stream length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fetch %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// checkDataStream is checkFetchStream for the data stream.
func checkDataStream(t *testing.T, b *Buffer, got []DataEvent) {
	t.Helper()
	want := b.Datas()
	if len(got) != len(want) {
		t.Fatalf("data stream length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("data %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// checkSameStreams fails the test unless the sink saw exactly both
// reference streams, in order.
func checkSameStreams(t *testing.T, b *Buffer, gotF []FetchEvent, gotD []DataEvent) {
	t.Helper()
	checkFetchStream(t, b, gotF)
	checkDataStream(t, b, gotD)
}

// TestReplayAllFanOutEquivalence: one ReplayAll pass over K mixed sinks
// (block sinks and per-event function adapters) delivers to every sink
// exactly what K independent replays would, across chunk and block
// boundaries.
func TestReplayAllFanOutEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var b Buffer
	fillRandom(r, chunkLen+3*batchLen+17, &b)

	var native, perEvent, fetchOnly, dataOnly eventLog
	err := b.ReplayAll(context.Background(), []SinkPair{
		{Fetch: &native, Data: &native},
		perEvent.perEvent(),
		{Fetch: &fetchOnly},
		{Data: &dataOnly},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSameStreams(t, &b, native.Fetches, native.Datas)
	checkSameStreams(t, &b, perEvent.Fetches, perEvent.Datas)
	checkFetchStream(t, &b, fetchOnly.Fetches)
	if len(fetchOnly.Datas) != 0 || len(dataOnly.Fetches) != 0 {
		t.Fatal("single-stream sinks received the other stream")
	}
	checkDataStream(t, &b, dataOnly.Datas)
	for _, n := range native.fetchBlocks {
		if n < 1 || n > batchLen {
			t.Fatalf("fetch block of %d events", n)
		}
	}
}

// TestReplayAllCancelMidFanOut: cancelling the context from inside a sink
// stops the fan-out between blocks — the error surfaces, no sink sees the
// full stream, and all sinks of the pass stop at the same block boundary.
func TestReplayAllCancelMidFanOut(t *testing.T) {
	var b Buffer
	total := 3 * batchLen
	for i := 0; i < total; i++ {
		b.OnFetch(FetchEvent{Addr: uint32(i) * 8})
	}
	ctx, cancel := context.WithCancel(context.Background())
	var first eventLog
	cancelling := FetchFunc(func(ev FetchEvent) {
		if ev.Addr == uint32(batchLen+1)*8 { // inside the second block
			cancel()
		}
	})
	var last eventLog
	err := b.ReplayAll(ctx, []SinkPair{
		{Fetch: &first},
		{Fetch: cancelling},
		{Fetch: &last},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fan-out: err = %v", err)
	}
	if len(first.Fetches) >= total || len(last.Fetches) >= total {
		t.Fatalf("cancelled fan-out delivered full streams: %d/%d of %d",
			len(first.Fetches), len(last.Fetches), total)
	}
	// The block in flight when cancel fired still completes for every sink:
	// sinks never diverge by more than a block boundary.
	if len(first.Fetches) != len(last.Fetches) {
		t.Fatalf("sinks diverged: %d vs %d events", len(first.Fetches), len(last.Fetches))
	}
	if len(first.Fetches)%batchLen != 0 {
		t.Fatalf("delivery stopped mid-block: %d events", len(first.Fetches))
	}
}

// buildInterleaved records nf fetch and nd data events in a deterministic
// seeded interleaving, returning the buffer.
func buildInterleaved(seed int64, nf, nd int) *Buffer {
	r := rand.New(rand.NewSource(seed))
	var b Buffer
	for nf > 0 || nd > 0 {
		if nd == 0 || (nf > 0 && r.Intn(2) == 0) {
			b.OnFetch(randFetch(r))
			nf--
		} else {
			b.OnData(randData(r))
			nd--
		}
	}
	return &b
}

// TestBatchShimOrderAcrossChunks: streams longer than one 32K-event
// column chunk, replayed through the per-event function adapters, still
// arrive in recorded order.
func TestBatchShimOrderAcrossChunks(t *testing.T) {
	b := buildInterleaved(9, chunkLen+batchLen+7, chunkLen+3)
	var perEvent eventLog
	if err := b.ReplayAll(context.Background(), []SinkPair{perEvent.perEvent()}); err != nil {
		t.Fatal(err)
	}
	checkSameStreams(t, b, perEvent.Fetches, perEvent.Datas)
}
