package suite

import (
	"context"
	"testing"

	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// BenchmarkSharedCacheMixedDomains prices one TraceCache serving both
// domains over the paper workloads, the traffic of a daemon or a
// -trace-dir that sweeps the data and the fetch domain of the same
// programs. Each iteration starts from a cold cache and replays every
// workload once per domain into a sink that does nothing, so the time is
// captures and decode only: the worst case for a second execution.
//
//	d-then-i     every workload's data stream, then every fetch stream
//	interleaved  each workload's data stream, then its fetch stream
//
// Run it with: go test ./internal/suite -run '^$' -bench SharedCacheMixedDomains
func BenchmarkSharedCacheMixedDomains(b *testing.B) {
	ctx := context.Background()
	ws := workloads.All()
	data := []trace.SinkPair{{Data: trace.DataFunc(func(trace.DataEvent) {})}}
	fetch := []trace.SinkPair{{Fetch: trace.FetchFunc(func(trace.FetchEvent) {})}}
	fanOut := func(b *testing.B, tc *TraceCache, w workloads.Workload, pairs []trace.SinkPair) {
		if _, err := tc.FanOut(ctx, w, 0, pairs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("d-then-i", func(b *testing.B) {
		for range b.N {
			tc := NewTraceCache()
			for _, pairs := range [][]trace.SinkPair{data, fetch} {
				for _, w := range ws {
					fanOut(b, tc, w, pairs)
				}
			}
			b.ReportMetric(float64(tc.Stats().Captures), "captures/op")
		}
	})
	b.Run("interleaved", func(b *testing.B) {
		for range b.N {
			tc := NewTraceCache()
			for _, w := range ws {
				fanOut(b, tc, w, data)
				fanOut(b, tc, w, fetch)
			}
			b.ReportMetric(float64(tc.Stats().Captures), "captures/op")
		}
	})
}
