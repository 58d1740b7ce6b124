package trace

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Stager is the one place a producer sends its events: a simulator, or
// Buffer.ReplayAll decoding a capture. The producer asks for the next slot
// of a stream (NextFetch, NextData) and writes the event's fields straight
// into the stager's current block for that stream; each time a block
// fills, the stager hands it over to every pair that reads the stream and
// the producer moves on to the next block of the stream's ring.
//
// Each SinkPair with a sink runs on a goroutine of its own, which takes
// the pair's blocks in the order they were handed over and calls its
// sinks, one dispatch per block per sink, each controller walking the
// block by pointer. So a pair's two sinks are never called at the same
// time, but different pairs are: no two pairs may share mutable state.
// Every pair reads a block without changing it, and the block returns to
// its stream's ring when the last pair is done with it. A stream's ring
// holds ringDepth blocks, the one the producer fills included, so the
// producer waits only when it is ringDepth blocks ahead of the slowest
// pair, and a run holds at most ringDepth blocks per stream.
//
// Blocks preserve order within each stream, not across the two streams:
// a fetch sink may see a later fetch block before a data sink sees an
// earlier data block. That is ReplayAll's contract too, and every technique
// in this repository consumes exactly one stream. A capture stager
// (NewCapture, NewCaptureStreams) has a Buffer as the sinks of one more
// pair, so its buffers are whole once the run ends.
//
// A Stager serves one run, and every run must end it: Flush once the run
// has succeeded, to deliver each stream's partial tail, or Discard once it
// has failed, to drop them. Both wait for every pair to take the blocks
// already handed over, so no sink is called and no goroutine of the stager
// runs after they return. A sink that panics stops its pair; the stager
// panics again on the producer's goroutine, with a *SinkPanic holding the
// sink's value and stack, at the next block it hands over or at Flush.
// The producer side of a stager is not safe for concurrent use.
type Stager struct {
	fblk *[stageLen]FetchEvent // the block the producer fills, nil if no pair reads the stream
	dblk *[stageLen]DataEvent
	nf   int
	nd   int
	fr   ring[FetchEvent]
	dr   ring[DataEvent]

	ins   []chan handoff // one per pair, in pair order
	wg    sync.WaitGroup // the pairs' goroutines
	fault atomic.Pointer[SinkPanic]
}

// stageLen is the number of events per staged block. From 256 to 4096
// events it did not move the live suite's speed: a block is handed to each
// pair once, so the handoff is noise at any of these sizes. It does move
// memory, since every concurrent run holds up to ringDepth blocks per
// stream: a 4096-event block pair (160 KB) read 1.3% above a 1024-event
// pair (40 KB) in paper-live's peak RSS on a 2-vCPU machine, when a run
// held one block per stream.
const stageLen = 1024

// ringDepth is the number of blocks in each stream's ring. Four let the
// pairs of a run keep working while the producer fills the next block,
// and bound what a slow pair holds back to 4×40 KB per run.
const ringDepth = 4

// The block pools let concurrent and successive runs reuse staging blocks
// instead of allocating a ring per run.
var (
	fetchBlocks = sync.Pool{New: func() any { return new([stageLen]FetchEvent) }}
	dataBlocks  = sync.Pool{New: func() any { return new([stageLen]DataEvent) }}
)

// ring is one stream's staged blocks. The producer fills the block of slot
// and hands it to readers; held counts, per slot, the readers that have
// not yet released its block, and the last one to release it returns the
// slot to free.
type ring[E FetchEvent | DataEvent] struct {
	blocks  [ringDepth]*[stageLen]E // taken from pool on first use
	held    [ringDepth]atomic.Int32
	free    chan uint8
	readers []chan handoff
	slot    uint8
	data    bool
	pool    *sync.Pool
}

// handoff is one block handed over to a pair: the first n events of a
// slot of the fetch or the data ring.
type handoff struct {
	data bool
	slot uint8
	n    int32
}

// NewStager returns a stager that delivers to every non-nil sink of pairs,
// each pair on a goroutine of its own.
func NewStager(pairs []SinkPair) *Stager {
	s := new(Stager)
	s.fr.data, s.fr.pool = false, &fetchBlocks
	s.dr.data, s.dr.pool = true, &dataBlocks
	for _, p := range pairs {
		if p.Fetch == nil && p.Data == nil {
			continue
		}
		// A pair has at most ringDepth blocks of each stream handed over
		// and not yet released, so the producer never waits on a send.
		in := make(chan handoff, 2*ringDepth)
		if p.Fetch != nil {
			s.fr.readers = append(s.fr.readers, in)
		}
		if p.Data != nil {
			s.dr.readers = append(s.dr.readers, in)
		}
		s.ins = append(s.ins, in)
		s.wg.Add(1)
		go s.consume(p, in)
	}
	if len(s.fr.readers) > 0 {
		s.fr.fill()
		s.fblk = s.fr.acquire()
	}
	if len(s.dr.readers) > 0 {
		s.dr.fill()
		s.dblk = s.dr.acquire()
	}
	return s
}

// NewCapture returns a stager that records one run into b: each staged
// block is appended to b's columns.
func NewCapture(b *Buffer) *Stager { return NewCaptureStreams(b, b, nil) }

// NewCaptureStreams returns a stager that records one run's fetch stream
// into fetch and its data stream into data, and hands each staged block to
// every non-nil sink of pairs too: the run that fills a capture can feed a
// fan-out pass as it goes, so that pass decodes nothing. The buffers are
// one more pair's sinks, so they hold the streams once the stager has
// ended. A nil buffer's stream is not recorded, and if no pair reads it
// either, the simulator builds none of its events.
func NewCaptureStreams(fetch, data *Buffer, pairs []SinkPair) *Stager {
	var rec SinkPair
	if fetch != nil {
		rec.Fetch = captureSink{fetch}
	}
	if data != nil {
		rec.Data = captureSink{data}
	}
	return NewStager(append([]SinkPair{rec}, pairs...))
}

// fill makes every slot of r free.
func (r *ring[E]) fill() {
	r.free = make(chan uint8, ringDepth)
	for i := range ringDepth {
		r.free <- uint8(i)
	}
}

// acquire waits for a slot no reader holds, makes it the producer's and
// returns its block.
func (r *ring[E]) acquire() *[stageLen]E {
	r.slot = <-r.free
	if r.blocks[r.slot] == nil {
		r.blocks[r.slot] = r.pool.Get().(*[stageLen]E)
	}
	return r.blocks[r.slot]
}

// publish hands the first n events of the producer's block to every
// reader.
func (r *ring[E]) publish(n int) {
	r.held[r.slot].Store(int32(len(r.readers)))
	h := handoff{data: r.data, slot: r.slot, n: int32(n)}
	for _, in := range r.readers {
		in <- h
	}
}

// release is one reader's end of slot's block.
func (r *ring[E]) release(slot uint8) {
	if r.held[slot].Add(-1) == 0 {
		r.free <- slot
	}
}

// drain returns r's blocks to their pool once no reader runs.
func (r *ring[E]) drain() {
	for i, b := range r.blocks {
		if b != nil {
			r.pool.Put(b)
			r.blocks[i] = nil
		}
	}
}

// handOver raises again any sink's panic, hands the first n events of the
// producer's block of r over and returns the next block to fill.
func handOver[E FetchEvent | DataEvent](s *Stager, r *ring[E], n int) *[stageLen]E {
	s.raise()
	r.publish(n)
	return r.acquire()
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

// fetchSlow is NextFetch's out-of-line half: it hands the full block over
// and returns the first slot of the next.
func (s *Stager) fetchSlow() *FetchEvent {
	s.fblk, s.nf = handOver(s, &s.fr, stageLen), 1
	return &s.fblk[0]
}

// dataSlow is fetchSlow for the data stream.
func (s *Stager) dataSlow() *DataEvent {
	s.dblk, s.nd = handOver(s, &s.dr, stageLen), 1
	return &s.dblk[0]
}

// Flush ends a run that succeeded: it hands each stream's partial tail
// block over, waits for every pair to take every block and returns the
// blocks to the pool. If a sink panicked, Flush then panics with its
// *SinkPanic. The stager must not be used afterwards, except that Flush
// and Discard do nothing once it has ended.
func (s *Stager) Flush() {
	if s.nf > 0 {
		s.fr.publish(s.nf)
	}
	if s.nd > 0 {
		s.dr.publish(s.nd)
	}
	s.Discard()
	s.raise()
}

// Discard ends a run that failed: it drops each stream's partial tail,
// waits for every pair to take the blocks already handed over, so every
// pair has seen the same blocks of each stream it reads, and returns the
// blocks to the pool. It does not raise a sink's panic.
func (s *Stager) Discard() {
	for _, in := range s.ins {
		close(in)
	}
	s.wg.Wait()
	s.fr.drain()
	s.dr.drain()
	s.ins, s.fblk, s.dblk, s.nf, s.nd = nil, nil, nil, 0, 0
}

// raise panics with the first sink panic of the run, if any.
func (s *Stager) raise() {
	if p := s.fault.Load(); p != nil {
		panic(p)
	}
}

// consume runs one pair: it delivers each block handed over to the pair
// until the stager ends, and after a sink's panic only releases them.
func (s *Stager) consume(p SinkPair, in <-chan handoff) {
	defer s.wg.Done()
	if !s.deliver(p, in) {
		for h := range in {
			s.release(h)
		}
	}
}

// deliver hands each block from in to p's sinks and releases it. It
// returns true when in closes, false when a sink panicked: the panic is
// recovered and kept for the producer.
func (s *Stager) deliver(p SinkPair, in <-chan handoff) (ok bool) {
	var h handoff
	defer func() {
		if !ok {
			s.fault.CompareAndSwap(nil, &SinkPanic{value: recover(), stack: debug.Stack()})
			s.release(h)
		}
	}()
	for h = range in {
		if h.data {
			p.Data.OnDataBatch(s.dr.blocks[h.slot][:h.n])
		} else {
			p.Fetch.OnFetchBatch(s.fr.blocks[h.slot][:h.n])
		}
		s.release(h)
	}
	return true
}

// release is one pair's end of h's block.
func (s *Stager) release(h handoff) {
	if h.data {
		s.dr.release(h.slot)
	} else {
		s.fr.release(h.slot)
	}
}

// SinkPanic is the value a Stager panics with on its producer's goroutine
// when a sink panicked on its pair's goroutine. pool.Run reports it as the
// sink's own panic, value and stack.
type SinkPanic struct {
	value any
	stack []byte
}

// PanicValue returns the value the sink panicked with.
func (p *SinkPanic) PanicValue() any { return p.value }

// PanicStack returns the stack of the sink's goroutine when it panicked,
// the sink's frame included.
func (p *SinkPanic) PanicStack() []byte { return p.stack }

func (p *SinkPanic) Error() string { return fmt.Sprintf("trace: sink panicked: %v", p.value) }

// captureSink appends a capture stager's blocks to its Buffer's columns.
type captureSink struct{ b *Buffer }

func (c captureSink) OnFetchBatch(evs []FetchEvent) { c.b.appendFetches(evs) }

func (c captureSink) OnDataBatch(evs []DataEvent) { c.b.appendDatas(evs) }
