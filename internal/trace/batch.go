package trace

// The per-block fan loop that Buffer.ReplayAll and Stager share. A block
// costs one dynamic dispatch per sink, and each controller's OnFetchBatch
// or OnDataBatch walks it as a devirtualized slice loop over its own
// precomputed shift and mask fields.

// splitSinks splits pairs into the sinks of each stream, skipping nil ones.
func splitSinks(pairs []SinkPair) (fetch []FetchSink, data []DataSink) {
	for _, p := range pairs {
		if p.Fetch != nil {
			fetch = append(fetch, p.Fetch)
		}
		if p.Data != nil {
			data = append(data, p.Data)
		}
	}
	return fetch, data
}

// fanFetch hands one block to every sink, one dispatch per block per sink.
func fanFetch(sinks []FetchSink, blk []FetchEvent) {
	for _, s := range sinks {
		s.OnFetchBatch(blk)
	}
}

// fanData is fanFetch for the data stream.
func fanData(sinks []DataSink, blk []DataEvent) {
	for _, s := range sinks {
		s.OnDataBatch(blk)
	}
}
