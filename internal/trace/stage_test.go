package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
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
	st = NewCaptureStreams(new(Buffer), nil)
	if f, d := st.Streams(); !f || d {
		t.Fatalf("fetch-only capture stager: streams %v, %v", f, d)
	}
	st.Flush()
}

// TestCaptureStagerMatchesPerEvent: recording a stream through a capture
// stager, block by block, yields the same buffer as appending the same
// events one by one — the same streams, so the same WMTRACE3 bytes —
// across block and chunk boundaries. So does recording each stream into a
// buffer of its own and joining the two.
func TestCaptureStagerMatchesPerEvent(t *testing.T) {
	for _, n := range []int{0, 1, stageLen + 1, chunkLen + 3*stageLen + 5} {
		r := rand.New(rand.NewSource(int64(n)))
		var perEvent, staged, fetches, datas Buffer
		st, apart := NewCapture(&staged), NewCaptureStreams(&fetches, &datas)
		for range n {
			if r.Intn(3) == 0 {
				ev := randData(r)
				perEvent.OnData(ev)
				*st.NextData(), *apart.NextData() = ev, ev
			} else {
				ev := randFetch(r)
				perEvent.OnFetch(ev)
				*st.NextFetch(), *apart.NextFetch() = ev, ev
			}
		}
		st.Flush()
		apart.Flush()
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
