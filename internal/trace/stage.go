package trace

import "sync"

// Stager is the one place a simulator sends its events. The simulator asks
// for the next slot of a stream (NextFetch, NextData) and writes the
// event's fields straight into the stager's current block for that stream;
// each time a block fills, the stager hands it to every sink's batch method
// — one dispatch per block per sink instead of one per event per sink, with
// each controller walking the block by pointer, the way Buffer.ReplayAll
// delivers a capture. Sinks that only implement the per-event interfaces
// join through the adapter shims.
//
// Blocks preserve order within each stream, not across the two streams:
// a fetch sink may see a later fetch block before a data sink sees an
// earlier data block. That is ReplayAll's contract too, and every technique
// in this repository consumes exactly one stream. A capture stager
// (NewCapture) additionally records the program-order interleaving of the
// two streams into its Buffer, which is what WriteTo spills.
//
// A Stager serves one run. Call Flush once the run has succeeded to
// deliver each stream's partial tail; a failed run's tails are dropped
// with it. The stager is not safe for concurrent use.
type Stager struct {
	fsinks []FetchBatchSink
	dsinks []DataBatchSink
	fblk   *fetchBlock
	dblk   *dataBlock
	nf     int
	nd     int
	// lim is the slot count below which NextFetch and NextData take their
	// inlined fast path: stageLen in a live run, 0 in a capture, where
	// every event also records its order bit.
	lim int
	// rec is the capture buffer that receives the interleaving of the two
	// streams, one order bit per event; nil for a live run.
	rec *Buffer
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
	s := &Stager{lim: stageLen}
	s.fsinks, s.dsinks = batchSinks(pairs)
	s.getBlocks()
	return s
}

// NewCapture returns a stager that records one run into b: each staged
// block is appended to b's columns, and the order in which the simulator
// asked for slots becomes b's program-order interleaving.
func NewCapture(b *Buffer) *Stager {
	s := &Stager{
		fsinks: []FetchBatchSink{captureSink{b}},
		dsinks: []DataBatchSink{captureSink{b}},
		rec:    b,
	}
	s.getBlocks()
	return s
}

// getBlocks takes a staging block for each stream that some sink consumes.
func (s *Stager) getBlocks() {
	if len(s.fsinks) > 0 {
		s.fblk = fetchBlocks.Get().(*fetchBlock)
	}
	if len(s.dsinks) > 0 {
		s.dblk = dataBlocks.Get().(*dataBlock)
	}
}

// Streams reports which streams some sink consumes (none for a nil
// stager). The simulator asks for slots only of those streams, so it
// skips building events nobody reads.
func (s *Stager) Streams() (fetch, data bool) {
	if s == nil {
		return false, false
	}
	return s.fblk != nil, s.dblk != nil
}

// NextFetch returns the slot of the run's next fetch event. The caller
// writes every field of the slot before asking for the next one. It is
// valid only on a stager whose Streams reports the fetch stream.
func (s *Stager) NextFetch() *FetchEvent {
	if s.nf < s.lim {
		s.nf++
		return &s.fblk[s.nf-1]
	}
	return s.fetchSlow()
}

// NextData is NextFetch for the data stream.
func (s *Stager) NextData() *DataEvent {
	if s.nd < s.lim {
		s.nd++
		return &s.dblk[s.nd-1]
	}
	return s.dataSlow()
}

// fetchSlow is NextFetch's out-of-line half: it delivers a full block and,
// in a capture, records the event's order bit.
func (s *Stager) fetchSlow() *FetchEvent {
	if s.nf == stageLen {
		fanFetch(s.fsinks, s.fblk[:])
		s.nf = 0
	}
	if s.rec != nil {
		s.rec.pushOrder(false)
	}
	s.nf++
	return &s.fblk[s.nf-1]
}

// dataSlow is fetchSlow for the data stream.
func (s *Stager) dataSlow() *DataEvent {
	if s.nd == stageLen {
		fanData(s.dsinks, s.dblk[:])
		s.nd = 0
	}
	if s.rec != nil {
		s.rec.pushOrder(true)
	}
	s.nd++
	return &s.dblk[s.nd-1]
}

// Flush delivers each stream's partial tail block and returns the blocks to
// the pool. It ends the run: the stager must not be used afterwards.
func (s *Stager) Flush() {
	if s.fblk != nil {
		if s.nf > 0 {
			fanFetch(s.fsinks, s.fblk[:s.nf])
		}
		fetchBlocks.Put(s.fblk)
	}
	if s.dblk != nil {
		if s.nd > 0 {
			fanData(s.dsinks, s.dblk[:s.nd])
		}
		dataBlocks.Put(s.dblk)
	}
	*s = Stager{}
}

// captureSink appends a capture stager's blocks to its Buffer's columns.
// The stager records the order bits itself, event by event.
type captureSink struct{ b *Buffer }

func (c captureSink) OnFetchBatch(evs []FetchEvent) { c.b.appendFetches(evs) }

func (c captureSink) OnDataBatch(evs []DataEvent) { c.b.appendDatas(evs) }
