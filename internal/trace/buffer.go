package trace

import (
	"context"
	"errors"
	"fmt"
)

// Buffer is a compact in-memory recording of one execution's event streams,
// built for the execute-once / replay-many pattern: the simulator runs a
// workload once into the Buffer through a capture stager, and the captured
// streams are then replayed to any number of cache techniques and geometries
// without re-executing a single instruction — all of them in one batched
// pass over the storage (ReplayAll), so the capture streams through memory
// once per sweep, not once per technique.
//
// Storage is compressed column chunks of chunkLen events: every event is
// encoded once, as it arrives, into the columns of its stream's open chunk
// (columns.go), and a chunk is sealed at its exact size when it fills. A
// chunk stores each event's flags byte and the fields the encoder could not
// predict from the ones before them — a fetch run whose stride holds keeps
// only its address and length, a load only its base and displacement.
// A fetch event is a run of packets (FetchEvent.Run), so the fetch stream
// stores about one event for every five packets, and the paper's
// workloads take 3.5–5.2 bytes per stored event, under 2 per packet or
// data access, instead of the 20 of the unpacked fetch struct.
// Replay decodes each chunk, the open one included, block-wise into the
// blocks of a Stager, whose pairs walk each block while the next is
// decoded, so a fan-out pass streams the encoded bytes exactly once.
// WriteTo spills the buffer to the WMTRACE4 file format (sealed chunks
// verbatim), one stream after the other, and ReadBuffer reloads it
// losslessly.
//
// The Buffer keeps each stream in order, not the interleaving of the two:
// every consumer of a capture reads one stream, and a capture may record
// only one (NewCaptureStreams) or join two recorded apart (Join). A
// simulator records into it through a capture stager, which appends whole
// staged blocks, and OnFetch and OnData append one event each.
//
// A Buffer is safe for any number of concurrent replays once capture has
// finished. It is not safe to append and replay concurrently.
type Buffer struct {
	fetch []encChunk // sealed full chunks, chunkLen events each
	data  []encChunk
	// The events past the last full chunk of each stream are the open
	// chunk, held encoded by its running encoder.
	fenc chunkEnc
	denc chunkEnc
	nf   int
	nd   int
	// err names the first appended fetch event the format cannot hold;
	// once set, WriteTo and ReplayAll refuse the buffer.
	err error
}

const (
	chunkShift = 15
	chunkLen   = 1 << chunkShift // events per chunk
	chunkMask  = chunkLen - 1

	// The flags byte of a fetch event: bits 0–1 hold the ControlKind, bit
	// 2 marks the run length as stored, bit 3 the packet shift, bit 5
	// base and disp, and bit 6 prev; bit 7 flags the first fetch after
	// reset. Bit 4 is spare, and a file that sets it is corrupt.
	fetchKindMask  = 0x03
	fetchRunFlag   = 0x04
	fetchShiftFlag = 0x08
	fetchSpareFlag = 0x10
	fetchBaseFlag  = 0x20
	fetchPrevFlag  = 0x40
	fetchFirstFlag = 0x80

	// maxShift bounds FetchEvent.Shift: a packet size is a 32-bit power
	// of two.
	maxShift = 32

	// The flags byte of a data event: bits 0–5 hold the access size, bit 6
	// marks addr as stored, and bit 7 flags a store.
	dataSizeMask  = 0x3f
	dataAddrFlag  = 0x40
	dataStoreFlag = 0x80
)

// NumFetches returns the number of recorded fetch events: runs, each of
// one or more packets.
func (b *Buffer) NumFetches() int { return b.nf }

// NumDatas returns the number of recorded data events.
func (b *Buffer) NumDatas() int { return b.nd }

// Len returns the total number of recorded events.
func (b *Buffer) Len() int { return b.nf + b.nd }

// EncodedBytes returns the encoded footprint of the sealed chunks and the
// open chunks — the bytes one replay pass streams.
func (b *Buffer) EncodedBytes() int64 {
	total := int64(b.fenc.encodedBytes() + b.denc.encodedBytes())
	for i := range b.fetch {
		total += int64(b.fetch[i].encodedBytes())
	}
	for i := range b.data {
		total += int64(b.data[i].encodedBytes())
	}
	return total
}

// OnFetch appends one fetch event to the buffer. An event the format
// cannot hold, a Kind that is not a ControlKind or a Shift of 32 or more,
// makes WriteTo and ReplayAll return an error naming it.
func (b *Buffer) OnFetch(ev FetchEvent) { b.appendFetches([]FetchEvent{ev}) }

// appendFetches encodes evs onto the fetch stream, splitting them at chunk
// boundaries and sealing each chunk as it fills.
func (b *Buffer) appendFetches(evs []FetchEvent) {
	for len(evs) > 0 {
		m := min(len(evs), chunkLen-b.nf&chunkMask)
		b.fenc.putFetches(evs[:m])
		if b.fenc.malformed && b.err == nil {
			b.err = checkFetches(b.nf, evs[:m])
		}
		b.nf += m
		evs = evs[m:]
		if b.nf&chunkMask == 0 {
			b.fetch = append(b.fetch, b.fenc.seal(fetchLayout))
		}
	}
}

// checkFetches returns an error naming the first of evs, the fetch events
// from index first on, that the format cannot hold: a Kind that is not a
// ControlKind or a Shift of maxShift or more. putFetches flags the encoder
// when it stores such an event (the kind's low bits, or a shift that fails
// its replay), and only then does appendFetches scan for it.
func checkFetches(first int, evs []FetchEvent) error {
	for i := range evs {
		ev := &evs[i]
		if ev.Kind <= KindIndirect && ev.Shift < maxShift {
			continue
		}
		why := fmt.Sprintf("shift %d is not below %d", ev.Shift, maxShift)
		if ev.Kind > KindIndirect {
			why = fmt.Sprintf("kind %d is not a ControlKind", ev.Kind)
		}
		return fmt.Errorf("trace: fetch event %d at %#x: %s", first+i, ev.Addr, why)
	}
	return nil
}

// Err returns the error naming the first malformed fetch event appended
// to the buffer, the error ReplayAll and WriteTo refuse it with, or nil.
func (b *Buffer) Err() error { return b.err }

// OnData appends one data event to the buffer.
func (b *Buffer) OnData(ev DataEvent) { b.appendDatas([]DataEvent{ev}) }

// appendDatas is appendFetches for the data stream.
func (b *Buffer) appendDatas(evs []DataEvent) {
	for len(evs) > 0 {
		m := min(len(evs), chunkLen-b.nd&chunkMask)
		b.denc.putDatas(evs[:m])
		b.nd += m
		evs = evs[m:]
		if b.nd&chunkMask == 0 {
			b.data = append(b.data, b.denc.seal(dataLayout))
		}
	}
}

// Join returns a buffer that holds fetch's fetch stream and data's data
// stream, so two streams captured in separate runs replay as one capture.
// It shares their chunks and copies none. Nothing may be appended to the
// joined buffer or to either source afterwards.
func Join(fetch, data *Buffer) *Buffer {
	return &Buffer{fetch: fetch.fetch, fenc: fetch.fenc, nf: fetch.nf, err: fetch.err,
		data: data.data, denc: data.denc, nd: data.nd}
}

// SinkPair registers one consumer's sinks for a fan-out replay pass. Either
// sink may be nil; every technique in this repository consumes exactly one
// stream.
type SinkPair struct {
	Fetch FetchSink
	Data  DataSink
}

// batchLen is the number of events ReplayAll decodes between two checks
// of its ctx: one block for each slot of a stream's ring (ringDepth ×
// stageLen). A sink that cancels the pass does so while it holds a block
// of some batch, so the producer, which needs that block's slot back to
// start the next batch but one, stops at a batch boundary and every pair
// sees the same whole batches.
const batchLen = ringDepth * stageLen

// ReplayAll fans the capture out to every registered pair in a single pass
// through a Stager: each compressed column chunk is decoded straight into
// the stager's blocks, once, and every pair walks each block on its own
// goroutine while the pass decodes the next (see Stager) — so an
// N-technique sweep streams the encoded bytes once instead of the raw
// bytes N times, and the pass waits only when it is ringDepth blocks
// ahead of the slowest pair. Per-sink event order is exactly capture
// order, identical to N independent single-pair passes. ReplayAll returns
// once every pair has taken every block, and a sink's panic panics again
// here, as with Stager.Flush.
//
// The two streams are replayed back to back: every sink in this repository
// consumes exactly one stream, so per-stream order — which is preserved
// exactly — is the only order a capture keeps.
//
// ctx is checked before every batchLen events, so a sweep cancels
// mid-fan-out with every pair stopped at the same batch boundary. A
// corrupt file-adopted chunk surfaces as an error at the block that fails
// to decode, never as wrong events, and a buffer that was handed a
// malformed fetch event replays nothing and returns the error naming that
// event.
func (b *Buffer) ReplayAll(ctx context.Context, sinks []SinkPair) error {
	if b.err != nil {
		return b.err
	}
	s := NewStager(sinks)
	defer s.Discard() // a failed pass; nothing once Flush has ended it
	fetch, data := s.Streams()
	if fetch {
		if err := b.forEachFetchBlock(ctx, func() []FetchEvent { return s.fblk[:] }, func(blk []FetchEvent) error {
			s.fblk = handOver(s, &s.fr, len(blk))
			return nil
		}); err != nil {
			return err
		}
	}
	if data {
		if err := b.forEachDataBlock(ctx, func() []DataEvent { return s.dblk[:] }, func(blk []DataEvent) error {
			s.dblk = handOver(s, &s.dr, len(blk))
			return nil
		}); err != nil {
			return err
		}
	}
	s.Flush()
	return nil
}

// forEachFetchBlock decodes the fetch stream block-wise into the slices
// next returns and hands each block to fn (see eachBlock).
func (b *Buffer) forEachFetchBlock(ctx context.Context, next func() []FetchEvent, fn func([]FetchEvent) error) error {
	open := b.fenc.chunk(fetchLayout)
	return forEachBlock(ctx, "fetch", b.fetch, &open, next, fn)
}

// forEachDataBlock is forEachFetchBlock for the data stream.
func (b *Buffer) forEachDataBlock(ctx context.Context, next func() []DataEvent, fn func([]DataEvent) error) error {
	open := b.denc.chunk(dataLayout)
	return forEachBlock(ctx, "data", b.data, &open, next, fn)
}

// forEachBlock decodes one stream, its sealed chunks and then its open
// chunk, block-wise, and hands each block to fn.
func forEachBlock[E FetchEvent | DataEvent](ctx context.Context, stream string, sealed []encChunk, open *encChunk,
	next func() []E, fn func([]E) error) error {
	var sc blockScratch
	for ci := 0; ci <= len(sealed); ci++ {
		ch := open
		if ci < len(sealed) {
			ch = &sealed[ci]
		}
		if err := eachBlock(ctx, ch, &sc, next, fn); errors.Is(err, errColumn) {
			return fmt.Errorf("trace: %s chunk %d: %w", stream, ci, err)
		} else if err != nil {
			return err
		}
	}
	return nil
}

// decodeChunk decodes ch block by block into one reused block and hands
// each block to fn.
func decodeChunk[E FetchEvent | DataEvent](ch *encChunk, fn func([]E)) error {
	var sc blockScratch
	block := make([]E, batchLen)
	return eachBlock(context.Background(), ch, &sc, func() []E { return block },
		func(blk []E) error { fn(blk); return nil })
}

// Fetches materializes the recorded fetch stream as a fresh slice — a
// convenience for tests and tools, not the replay hot path.
func (b *Buffer) Fetches() []FetchEvent {
	out, block := make([]FetchEvent, 0, b.nf), make([]FetchEvent, batchLen)
	b.forEachFetchBlock(context.Background(), func() []FetchEvent { return block }, func(blk []FetchEvent) error {
		out = append(out, blk...)
		return nil
	})
	return out
}

// Datas materializes the recorded data stream as a fresh slice.
func (b *Buffer) Datas() []DataEvent {
	out, block := make([]DataEvent, 0, b.nd), make([]DataEvent, batchLen)
	b.forEachDataBlock(context.Background(), func() []DataEvent { return block }, func(blk []DataEvent) error {
		out = append(out, blk...)
		return nil
	})
	return out
}
