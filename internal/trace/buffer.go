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
// predict from the ones before them — a fall-through fetch keeps only its
// address, a load only its base and displacement — about 2.5 bytes per event
// on the paper's workloads instead of the 24 of the unpacked struct. Replay
// decodes each chunk, the open one included, block-wise into a batchLen
// event scratch that stays L2-hot while every sink of the pass walks it, so
// a fan-out pass streams the encoded bytes exactly once. WriteTo spills the
// buffer to the WMTRACE3 file format (sealed chunks verbatim), one stream
// after the other, and ReadBuffer reloads it losslessly.
//
// The Buffer keeps each stream in order, not the interleaving of the two:
// every consumer of a capture reads one stream, and a capture may record
// only one (NewCaptureStreams) or join two recorded apart (Join). A
// simulator records into it through a capture stager, which appends whole
// staged blocks; OnFetch and OnData append one event. A Buffer is safe for any number of concurrent replays once
// capture has finished. It is not safe to append and replay concurrently.
type Buffer struct {
	fetch []encChunk // sealed full chunks, chunkLen events each
	data  []encChunk
	// The events past the last full chunk of each stream are the open
	// chunk, held encoded by its running encoder.
	fenc chunkEnc
	denc chunkEnc
	nf   int
	nd   int
}

const (
	chunkShift = 15
	chunkLen   = 1 << chunkShift // events per chunk
	chunkMask  = chunkLen - 1

	// The flags byte of a fetch event: bits 0–4 hold the ControlKind, bit
	// 5 marks base and disp as stored, bit 6 marks prev as stored, and bit
	// 7 flags the first fetch after reset.
	fetchKindMask  = 0x1f
	fetchBaseFlag  = 0x20
	fetchPrevFlag  = 0x40
	fetchFirstFlag = 0x80

	// The flags byte of a data event: bits 0–5 hold the access size, bit 6
	// marks addr as stored, and bit 7 flags a store.
	dataSizeMask  = 0x3f
	dataAddrFlag  = 0x40
	dataStoreFlag = 0x80
)

// NumFetches returns the number of recorded fetch events.
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

// OnFetch appends one fetch event to the buffer.
func (b *Buffer) OnFetch(ev FetchEvent) { b.appendFetches([]FetchEvent{ev}) }

// appendFetches encodes evs onto the fetch stream, splitting them at chunk
// boundaries and sealing each chunk as it fills.
func (b *Buffer) appendFetches(evs []FetchEvent) {
	for len(evs) > 0 {
		m := min(len(evs), chunkLen-b.nf&chunkMask)
		b.fenc.putFetches(evs[:m])
		b.nf += m
		evs = evs[m:]
		if b.nf&chunkMask == 0 {
			b.fetch = append(b.fetch, b.fenc.seal(fetchLayout))
		}
	}
}

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
	return &Buffer{fetch: fetch.fetch, fenc: fetch.fenc, nf: fetch.nf,
		data: data.data, denc: data.denc, nd: data.nd}
}

// SinkPair registers one consumer's sinks for a fan-out replay pass. Either
// sink may be nil; every technique in this repository consumes exactly one
// stream.
type SinkPair struct {
	Fetch FetchSink
	Data  DataSink
}

// batchLen is the number of events decoded per replay block: large enough
// that decode overhead and the one dynamic dispatch per block per sink are
// noise, small enough that the decoded block (~96KB of fetch events) stays
// resident in L2 while every sink of the pass walks it.
const batchLen = 4096

// ReplayAll fans the capture out to every registered sink in a single pass:
// each compressed column chunk is decoded into event blocks once, and each
// block is handed to all sinks before the next block is touched — so an N-technique sweep streams the encoded bytes once instead
// of the raw bytes N times, and the hot block stays cache-resident.
// Per-sink event order is exactly capture order, identical to N independent
// single-pair passes.
//
// The two streams are replayed back to back: every sink in this repository
// consumes exactly one stream, so per-stream order — which is preserved
// exactly — is the only order a capture keeps.
//
// ctx is checked between blocks, so a sweep cancels mid-fan-out with at
// most one partial block delivered. A corrupt file-adopted chunk surfaces
// as an error at the block that fails to decode, never as wrong events.
func (b *Buffer) ReplayAll(ctx context.Context, sinks []SinkPair) error {
	fetch, data := splitSinks(sinks)
	if len(fetch) > 0 {
		if err := b.forEachFetchBlock(ctx, func(blk []FetchEvent) error {
			fanFetch(fetch, blk)
			return nil
		}); err != nil {
			return err
		}
	}
	if len(data) > 0 {
		if err := b.forEachDataBlock(ctx, func(blk []DataEvent) error {
			fanData(data, blk)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// forEachFetchBlock decodes the fetch stream block-wise and hands each
// block to fn. The block slice is reused; fn must not retain it.
func (b *Buffer) forEachFetchBlock(ctx context.Context, fn func([]FetchEvent) error) error {
	open := b.fenc.chunk(fetchLayout)
	return forEachBlock(ctx, "fetch", b.fetch, &open, fn)
}

// forEachDataBlock is forEachFetchBlock for the data stream.
func (b *Buffer) forEachDataBlock(ctx context.Context, fn func([]DataEvent) error) error {
	open := b.denc.chunk(dataLayout)
	return forEachBlock(ctx, "data", b.data, &open, fn)
}

// forEachBlock decodes one stream, its sealed chunks and then its open
// chunk, block-wise, and hands each block to fn.
func forEachBlock[E FetchEvent | DataEvent](ctx context.Context, stream string, sealed []encChunk, open *encChunk,
	fn func([]E) error) error {
	var sc blockScratch
	block := make([]E, batchLen)
	for ci := 0; ci <= len(sealed); ci++ {
		ch := open
		if ci < len(sealed) {
			ch = &sealed[ci]
		}
		if err := eachBlock(ctx, ch, block, &sc, fn); errors.Is(err, errColumn) {
			return fmt.Errorf("trace: %s chunk %d: %w", stream, ci, err)
		} else if err != nil {
			return err
		}
	}
	return nil
}

// Fetches materializes the recorded fetch stream as a fresh slice — a
// convenience for tests and tools, not the replay hot path.
func (b *Buffer) Fetches() []FetchEvent {
	out := make([]FetchEvent, 0, b.nf)
	b.forEachFetchBlock(context.Background(), func(blk []FetchEvent) error {
		out = append(out, blk...)
		return nil
	})
	return out
}

// Datas materializes the recorded data stream as a fresh slice.
func (b *Buffer) Datas() []DataEvent {
	out := make([]DataEvent, 0, b.nd)
	b.forEachDataBlock(context.Background(), func(blk []DataEvent) error {
		out = append(out, blk...)
		return nil
	})
	return out
}
