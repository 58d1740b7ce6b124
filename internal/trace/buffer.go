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
// encoded once, as it arrives, into the delta/varint columns of its
// stream's open chunk (columns.go; ~5 bytes per fetch event on the paper's
// workloads instead of the 24 of the unpacked struct, with a per-column raw
// fallback for incompressible streams), and a chunk is sealed at its exact
// size when it fills. Replay decodes each chunk, the open one included,
// block-wise into a batchLen event scratch that stays L2-hot while every
// sink of the pass walks it, so a fan-out pass streams the encoded bytes —
// severalfold fewer than raw columns — exactly once. The program-order
// interleaving of the two streams is kept as one bit per event, which is
// what lets WriteTo spill the buffer to the WMTRACE2 file format (sealed
// chunks verbatim) and ReadBuffer reload it losslessly.
//
// A Buffer is append-only. A simulator records into it through a capture
// stager (NewCapture), which appends whole staged blocks and the order bit
// of each event; the per-event FetchSink and DataSink methods append one
// event with its order bit. A Buffer is safe for any number of concurrent
// replays once capture has finished. It is not safe to append and replay
// concurrently.
type Buffer struct {
	fetch []encChunk // sealed full chunks, chunkLen events each
	data  []encChunk
	// The events past the last full chunk of each stream are the open
	// chunk, held encoded by its running encoder.
	fenc chunkEnc
	denc chunkEnc
	nf   int
	nd   int

	// order holds one bit per recorded event in arrival order: 0 = fetch,
	// 1 = data. It preserves the program-order interleaving for WriteTo.
	order []uint64
	n     int
}

const (
	chunkShift = 15
	chunkLen   = 1 << chunkShift // events per chunk
	chunkMask  = chunkLen - 1

	// kind column packing: low 7 bits hold the ControlKind, the top bit
	// flags the first fetch after reset.
	fetchKindMask  = 0x7f
	fetchFirstFlag = 0x80

	// meta column packing: low 7 bits hold the access size, the top bit
	// flags a store.
	dataSizeMask  = 0x7f
	dataStoreFlag = 0x80
)

// NumFetches returns the number of recorded fetch events.
func (b *Buffer) NumFetches() int { return b.nf }

// NumDatas returns the number of recorded data events.
func (b *Buffer) NumDatas() int { return b.nd }

// Len returns the total number of recorded events.
func (b *Buffer) Len() int { return b.n }

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

func (b *Buffer) pushOrder(isData bool) {
	if b.n&63 == 0 {
		b.order = append(b.order, 0)
	}
	if isData {
		b.order[b.n>>6] |= 1 << (b.n & 63)
	}
	b.n++
}

// OnFetch appends one fetch event to the buffer.
func (b *Buffer) OnFetch(ev FetchEvent) {
	b.appendFetches([]FetchEvent{ev})
	b.pushOrder(false)
}

// appendFetches encodes evs onto the fetch stream, splitting them at chunk
// boundaries and sealing each chunk as it fills. The order bits are the
// caller's.
func (b *Buffer) appendFetches(evs []FetchEvent) {
	for len(evs) > 0 {
		m := min(len(evs), chunkLen-b.nf&chunkMask)
		b.fenc.putFetches(evs[:m])
		b.nf += m
		evs = evs[m:]
		if b.nf&chunkMask == 0 {
			b.fetch = append(b.fetch, b.fenc.seal(fetchCols))
		}
	}
}

// OnData appends one data event to the buffer.
func (b *Buffer) OnData(ev DataEvent) {
	b.appendDatas([]DataEvent{ev})
	b.pushOrder(true)
}

// appendDatas is appendFetches for the data stream.
func (b *Buffer) appendDatas(evs []DataEvent) {
	for len(evs) > 0 {
		m := min(len(evs), chunkLen-b.nd&chunkMask)
		b.denc.putDatas(evs[:m])
		b.nd += m
		evs = evs[m:]
		if b.nd&chunkMask == 0 {
			b.data = append(b.data, b.denc.seal(dataCols))
		}
	}
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

// Replay feeds both recorded streams to the sinks (either may be nil). It
// is ReplayAll over a single pair; see ReplayAll for ordering and
// cancellation semantics.
func (b *Buffer) Replay(ctx context.Context, fetch FetchSink, data DataSink) error {
	return b.ReplayAll(ctx, []SinkPair{{Fetch: fetch, Data: data}})
}

// ReplayAll fans the capture out to every registered sink in a single pass:
// each compressed column chunk is decoded into event blocks once, and each
// block is handed to all sinks (native batch sinks directly, legacy
// per-event sinks through the adapter shim) before the next block is
// touched — so an N-technique sweep streams the encoded bytes once instead
// of the raw bytes N times, and the hot block stays cache-resident.
// Per-sink event order is exactly capture order, identical to N independent
// Replay calls.
//
// The two streams are replayed back to back, not interleaved: every sink in
// this repository consumes exactly one stream, so per-stream order — which
// is preserved exactly — is the only order that matters. Use WriteTo for a
// faithful program-order interleaving.
//
// ctx is checked between blocks, so a sweep cancels mid-fan-out with at
// most one partial block delivered. A corrupt file-adopted chunk surfaces
// as an error at the block that fails to decode, never as wrong events.
func (b *Buffer) ReplayAll(ctx context.Context, sinks []SinkPair) error {
	fetch, data := batchSinks(sinks)
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
	open := b.fenc.chunk(b.nf&chunkMask, fetchCols)
	return forEachBlock(ctx, "fetch", b.fetch, &open, fn)
}

// forEachDataBlock is forEachFetchBlock for the data stream.
func (b *Buffer) forEachDataBlock(ctx context.Context, fn func([]DataEvent) error) error {
	open := b.denc.chunk(b.nd&chunkMask, dataCols)
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
