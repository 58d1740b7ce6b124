package trace

import "sync"

// Stager is the one place a simulator sends its events. The simulator asks
// for the next slot of a stream (NextFetch, NextData) and writes the
// event's fields straight into the stager's current block for that stream;
// each time a block fills, the stager hands it to every sink — one
// dispatch per block per sink, with each controller walking the block by
// pointer, the way Buffer.ReplayAll delivers a capture.
//
// Blocks preserve order within each stream, not across the two streams:
// a fetch sink may see a later fetch block before a data sink sees an
// earlier data block. That is ReplayAll's contract too, and every technique
// in this repository consumes exactly one stream. A capture stager
// (NewCapture, NewCaptureStreams) has a Buffer as the first sink of each
// stream it records.
//
// A Stager serves one run. Call Flush once the run has succeeded to
// deliver each stream's partial tail; a failed run's tails are dropped
// with it. The stager is not safe for concurrent use.
type Stager struct {
	fsinks []FetchSink
	dsinks []DataSink
	fblk   *fetchBlock
	dblk   *dataBlock
	nf     int
	nd     int
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
	s := new(Stager)
	s.fsinks, s.dsinks = splitSinks(pairs)
	s.getBlocks()
	return s
}

// NewCapture returns a stager that records one run into b: each staged
// block is appended to b's columns.
func NewCapture(b *Buffer) *Stager { return NewCaptureStreams(b, b, nil) }

// NewCaptureStreams returns a stager that records one run's fetch stream
// into fetch and its data stream into data, and hands each staged block,
// once its buffer holds it, to every non-nil sink of pairs too: the run
// that fills a capture can feed a fan-out pass as it goes, so that pass
// decodes nothing. A nil buffer's stream is not recorded, and if no pair
// reads it either, the simulator builds none of its events.
func NewCaptureStreams(fetch, data *Buffer, pairs []SinkPair) *Stager {
	s := new(Stager)
	if fetch != nil {
		s.fsinks = []FetchSink{captureSink{fetch}}
	}
	if data != nil {
		s.dsinks = []DataSink{captureSink{data}}
	}
	f, d := splitSinks(pairs)
	s.fsinks, s.dsinks = append(s.fsinks, f...), append(s.dsinks, d...)
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
// writes every field of the slot, and the slot stays the caller's until it
// asks for the next one or flushes: a full block is handed over only then,
// so a simulator may still extend the open slot's run (FetchEvent.Run). It
// is valid only on a stager whose Streams reports the fetch stream.
func (s *Stager) NextFetch() *FetchEvent {
	if s.nf < stageLen {
		s.nf++
		return &s.fblk[s.nf-1]
	}
	return s.fetchSlow()
}

// NextData is NextFetch for the data stream.
func (s *Stager) NextData() *DataEvent {
	if s.nd < stageLen {
		s.nd++
		return &s.dblk[s.nd-1]
	}
	return s.dataSlow()
}

// fetchSlow is NextFetch's out-of-line half: it delivers the full block and
// returns the first slot of the next.
func (s *Stager) fetchSlow() *FetchEvent {
	fanFetch(s.fsinks, s.fblk[:])
	s.nf = 1
	return &s.fblk[0]
}

// dataSlow is fetchSlow for the data stream.
func (s *Stager) dataSlow() *DataEvent {
	fanData(s.dsinks, s.dblk[:])
	s.nd = 1
	return &s.dblk[0]
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
type captureSink struct{ b *Buffer }

func (c captureSink) OnFetchBatch(evs []FetchEvent) { c.b.appendFetches(evs) }

func (c captureSink) OnDataBatch(evs []DataEvent) { c.b.appendDatas(evs) }
