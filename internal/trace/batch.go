package trace

// Batch sink interfaces for the fan-out replay engine.
//
// The per-event FetchSink/DataSink interfaces cost one dynamic dispatch per
// event per sink, which dominates replay once the simulator itself is out of
// the loop. The batch interfaces move the dispatch boundary up to one call
// per decoded event block: Buffer.ReplayAll unpacks each column chunk into a
// []FetchEvent / []DataEvent block once and hands the same block to every
// registered sink, so a controller's inner loop is a devirtualized slice
// walk over its own precomputed shift/mask fields instead of an interface
// call per event.
//
// Live simulation delivers the same way through a Stager (stage.go), which
// stages the simulator's events into blocks and shares the per-block fan
// loop below with ReplayAll.
//
// The event slices a batch sink receives are owned by the replay engine or
// the stager and are only valid for the duration of the call: they are
// reused for the next block. Sinks must consume them synchronously and must
// not retain them.

// FetchBatchSink consumes instruction-fetch events one block at a time, in
// stream order. Implement it alongside OnFetch on hot controllers; sinks
// that only implement the per-event FetchSink are adapted transparently by
// BatchFetchSink.
type FetchBatchSink interface {
	OnFetchBatch(evs []FetchEvent)
}

// DataBatchSink consumes data-access events one block at a time, in stream
// order.
type DataBatchSink interface {
	OnDataBatch(evs []DataEvent)
}

// BatchFetchSink returns s's native batch implementation when it has one,
// and otherwise wraps s in the legacy adapter shim, which unrolls each block
// into per-event OnFetch calls in order — so any FetchSink, however old, can
// join a batched fan-out pass with unchanged semantics.
func BatchFetchSink(s FetchSink) FetchBatchSink {
	if b, ok := s.(FetchBatchSink); ok {
		return b
	}
	return fetchShim{s}
}

// BatchDataSink is BatchFetchSink for the data stream.
func BatchDataSink(s DataSink) DataBatchSink {
	if b, ok := s.(DataBatchSink); ok {
		return b
	}
	return dataShim{s}
}

// fetchShim adapts a per-event sink to the batch interface.
type fetchShim struct{ s FetchSink }

func (sh fetchShim) OnFetchBatch(evs []FetchEvent) {
	for i := range evs {
		sh.s.OnFetch(evs[i])
	}
}

// dataShim adapts a per-event sink to the batch interface.
type dataShim struct{ s DataSink }

func (sh dataShim) OnDataBatch(evs []DataEvent) {
	for i := range evs {
		sh.s.OnData(evs[i])
	}
}

// batchSinks splits pairs into the batch sinks of each stream, adapting
// per-event sinks through the shims. Nil sinks are skipped.
func batchSinks(pairs []SinkPair) (fetch []FetchBatchSink, data []DataBatchSink) {
	for _, p := range pairs {
		if p.Fetch != nil {
			fetch = append(fetch, BatchFetchSink(p.Fetch))
		}
		if p.Data != nil {
			data = append(data, BatchDataSink(p.Data))
		}
	}
	return fetch, data
}

// fanFetch hands one block to every sink, one dispatch per block per sink.
// It is the per-block fan loop of both ReplayAll and Stager.
func fanFetch(sinks []FetchBatchSink, blk []FetchEvent) {
	for _, s := range sinks {
		s.OnFetchBatch(blk)
	}
}

// fanData is fanFetch for the data stream.
func fanData(sinks []DataBatchSink, blk []DataEvent) {
	for _, s := range sinks {
		s.OnDataBatch(blk)
	}
}
