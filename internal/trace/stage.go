package trace

import "sync"

// Stager delivers a live simulation's events in blocks, the way
// Buffer.ReplayAll delivers a capture: the simulator calls OnFetch/OnData
// once per event, the stager copies the event into a fixed block for its
// stream, and each time a block fills it hands the block to every sink's
// batch method — one dispatch per block per sink instead of one per event
// per sink, with each controller walking the block by pointer. Sinks that
// only implement the per-event interfaces join through the adapter shims.
//
// Blocks preserve order within each stream, not across the two streams:
// a fetch sink may see a later fetch block before a data sink sees an
// earlier data block. That is ReplayAll's contract too, and every technique
// in this repository consumes exactly one stream.
//
// A Stager serves one run. Call Flush once the run has succeeded to
// deliver each stream's partial tail; a failed run's tails are dropped
// with it. The stager is not safe for concurrent use.
type Stager struct {
	fetch []FetchBatchSink
	data  []DataBatchSink
	fblk  *fetchBlock
	dblk  *dataBlock
	nf    int
	nd    int
}

// stageLen is the number of events per staged block. From 256 to 4096
// events it did not move the live suite's speed: a block is dispatched to
// each sink once, so the dispatch is noise at any of these sizes. It does
// move memory, since every concurrent run holds one block per stream: a
// 4096-event pair (160 KB) read 1.3% above a 1024-event pair (40 KB) in
// paper-live's peak RSS on a 2-vCPU machine.
const stageLen = 1024

type (
	fetchBlock [stageLen]FetchEvent
	dataBlock  [stageLen]DataEvent
)

// The block pools let concurrent and successive runs reuse staging blocks
// instead of allocating a pair per run.
var (
	fetchBlocks = sync.Pool{New: func() any { return new(fetchBlock) }}
	dataBlocks  = sync.Pool{New: func() any { return new(dataBlock) }}
)

// NewStager returns a stager that delivers to every non-nil sink of pairs.
func NewStager(pairs []SinkPair) *Stager {
	s := &Stager{}
	s.fetch, s.data = batchSinks(pairs)
	if len(s.fetch) > 0 {
		s.fblk = fetchBlocks.Get().(*fetchBlock)
	}
	if len(s.data) > 0 {
		s.dblk = dataBlocks.Get().(*dataBlock)
	}
	return s
}

// Sinks returns the sinks to attach to the simulator: the stager for each
// stream that some pair consumes, nil for a stream that none does (so the
// simulator skips building its events).
func (s *Stager) Sinks() (FetchSink, DataSink) {
	var f FetchSink
	var d DataSink
	if s.fblk != nil {
		f = s
	}
	if s.dblk != nil {
		d = s
	}
	return f, d
}

// OnFetch stages one fetch event, delivering the block when it fills.
func (s *Stager) OnFetch(ev FetchEvent) {
	s.fblk[s.nf] = ev
	s.nf++
	if s.nf == stageLen {
		fanFetch(s.fetch, s.fblk[:])
		s.nf = 0
	}
}

// OnData stages one data event, delivering the block when it fills.
func (s *Stager) OnData(ev DataEvent) {
	s.dblk[s.nd] = ev
	s.nd++
	if s.nd == stageLen {
		fanData(s.data, s.dblk[:])
		s.nd = 0
	}
}

// Flush delivers each stream's partial tail block and returns the blocks to
// the pool. It ends the run: the stager must not be used afterwards.
func (s *Stager) Flush() {
	if s.fblk != nil {
		if s.nf > 0 {
			fanFetch(s.fetch, s.fblk[:s.nf])
		}
		fetchBlocks.Put(s.fblk)
	}
	if s.dblk != nil {
		if s.nd > 0 {
			fanData(s.data, s.dblk[:s.nd])
		}
		dataBlocks.Put(s.dblk)
	}
	*s = Stager{}
}
