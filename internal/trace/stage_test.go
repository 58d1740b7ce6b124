package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// TestStagerDelivery: a stager hands every sink each stream in order, in
// full stageLen blocks plus the tail Flush delivers, whether the streams
// end below, at or one past a block boundary; legacy per-event sinks get
// the same streams through the shim.
func TestStagerDelivery(t *testing.T) {
	for _, n := range []int{0, 1, stageLen - 1, stageLen, stageLen + 1, 3*stageLen + 17} {
		r := rand.New(rand.NewSource(int64(n)))
		var native batchLog
		var legacy, fetchOnly eventLog
		st := NewStager([]SinkPair{
			{Fetch: &native, Data: &native},
			{Fetch: &legacy, Data: &legacy},
			{Fetch: &fetchOnly},
		})
		f, d := st.Sinks()
		wantF, wantD := make([]FetchEvent, n), make([]DataEvent, n)
		for i := range n {
			wantF[i], wantD[i] = randFetch(r), randData(r)
			f.OnFetch(wantF[i])
			d.OnData(wantD[i])
		}
		st.Flush()

		for _, got := range [][]FetchEvent{native.Fetches, legacy.Fetches, fetchOnly.Fetches} {
			if !slices.Equal(got, wantF) {
				t.Fatalf("n=%d: fetch stream of %d events, want the %d staged", n, len(got), len(wantF))
			}
		}
		for _, got := range [][]DataEvent{native.Datas, legacy.Datas} {
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

// TestStagerSinksPerStream: a stream no pair consumes gets a nil sink, so
// the simulator skips building its events.
func TestStagerSinksPerStream(t *testing.T) {
	var l eventLog
	st := NewStager([]SinkPair{{Data: &l}})
	if f, d := st.Sinks(); f != nil || d == nil {
		t.Fatalf("data-only stager: sinks %v, %v", f, d)
	}
	st.Flush()
	st = NewStager(nil)
	if f, d := st.Sinks(); f != nil || d != nil {
		t.Fatalf("empty stager: sinks %v, %v", f, d)
	}
	st.Flush()
}
