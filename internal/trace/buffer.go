package trace

import (
	"context"
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
// Storage is compressed column chunks: events are staged into fixed-size
// structure-of-arrays chunks and, each time a chunk fills, sealed into the
// delta/varint column encoding of columns.go (~5 bytes per fetch event on
// the paper's workloads instead of the 24 of the unpacked struct, with a
// per-column raw fallback for incompressible streams). Replay decodes each
// sealed chunk block-wise into a batchLen event scratch that stays L2-hot
// while every sink of the pass walks it, so a fan-out pass streams the
// encoded bytes — severalfold fewer than raw columns — exactly once. The
// program-order interleaving of the two streams is kept as one bit per
// event, which is what lets WriteTo spill the buffer to the WMTRACE2 file
// format (sealed chunks verbatim) and ReadBuffer reload it losslessly.
//
// A Buffer is append-only. A simulator records into it through a capture
// stager (NewCapture), which appends whole staged blocks and the order bit
// of each event; the per-event FetchSink and DataSink methods append one
// event with its order bit. A Buffer is safe for any number of concurrent
// replays once capture has finished. It is not safe to append and replay
// concurrently.
type Buffer struct {
	fetch []encFetchChunk // sealed full chunks, chunkLen events each
	data  []encDataChunk
	// The not-yet-full tail of each stream stays raw in a staging chunk
	// (reused after each seal), so appends never re-encode.
	fstage *fetchChunk
	dstage *dataChunk
	nf     int
	nd     int

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

// fetchChunk is one staging block of raw column-packed fetch events.
type fetchChunk struct {
	addr [chunkLen]uint32
	prev [chunkLen]uint32
	base [chunkLen]uint32
	disp [chunkLen]int32
	kind [chunkLen]uint8
}

// dataChunk is one staging block of raw column-packed data events.
type dataChunk struct {
	addr [chunkLen]uint32
	base [chunkLen]uint32
	disp [chunkLen]int32
	meta [chunkLen]uint8
}

// NumFetches returns the number of recorded fetch events.
func (b *Buffer) NumFetches() int { return b.nf }

// NumDatas returns the number of recorded data events.
func (b *Buffer) NumDatas() int { return b.nd }

// Len returns the total number of recorded events.
func (b *Buffer) Len() int { return b.n }

// EncodedBytes returns the compressed footprint of the sealed chunks plus
// the raw footprint of the staged tails — the bytes one replay pass streams.
func (b *Buffer) EncodedBytes() int64 {
	var total int64
	for i := range b.fetch {
		total += int64(b.fetch[i].encodedBytes())
	}
	for i := range b.data {
		total += int64(b.data[i].encodedBytes())
	}
	total += int64((b.nf & chunkMask) * 17)
	total += int64((b.nd & chunkMask) * 13)
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
	b.putFetch(&ev)
	b.pushOrder(false)
}

// putFetch appends one fetch event to the fetch columns, sealing the
// staging chunk when it fills. The order bit is the caller's.
func (b *Buffer) putFetch(ev *FetchEvent) {
	i := b.nf & chunkMask
	if b.fstage == nil {
		b.fstage = new(fetchChunk)
	}
	st := b.fstage
	st.addr[i] = ev.Addr
	st.prev[i] = ev.Prev
	st.base[i] = ev.Base
	st.disp[i] = ev.Disp
	k := uint8(ev.Kind) & fetchKindMask
	if ev.First {
		k |= fetchFirstFlag
	}
	st.kind[i] = k
	b.nf++
	if b.nf&chunkMask == 0 {
		b.fetch = append(b.fetch, sealFetchChunk(st, chunkLen))
	}
}

// OnData appends one data event to the buffer.
func (b *Buffer) OnData(ev DataEvent) {
	b.putData(&ev)
	b.pushOrder(true)
}

// putData is putFetch for the data columns.
func (b *Buffer) putData(ev *DataEvent) {
	i := b.nd & chunkMask
	if b.dstage == nil {
		b.dstage = new(dataChunk)
	}
	st := b.dstage
	st.addr[i] = ev.Addr
	st.base[i] = ev.Base
	st.disp[i] = ev.Disp
	m := ev.Size & dataSizeMask
	if ev.Store {
		m |= dataStoreFlag
	}
	st.meta[i] = m
	b.nd++
	if b.nd&chunkMask == 0 {
		b.data = append(b.data, sealDataChunk(st, chunkLen))
	}
}

// fetchEventAt assembles the j-th event of a raw chunk.
func fetchEventAt(ch *fetchChunk, j int) FetchEvent {
	return FetchEvent{
		Addr:  ch.addr[j],
		Prev:  ch.prev[j],
		Base:  ch.base[j],
		Disp:  ch.disp[j],
		Kind:  ControlKind(ch.kind[j] & fetchKindMask),
		First: ch.kind[j]&fetchFirstFlag != 0,
	}
}

// dataEventAt assembles the j-th event of a raw chunk.
func dataEventAt(ch *dataChunk, j int) DataEvent {
	return DataEvent{
		Addr:  ch.addr[j],
		Base:  ch.base[j],
		Disp:  ch.disp[j],
		Size:  ch.meta[j] & dataSizeMask,
		Store: ch.meta[j]&dataStoreFlag != 0,
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

// forEachFetchBlock decodes the fetch stream block-wise and hands each block
// to fn. The block slice is reused; fn must not retain it.
func (b *Buffer) forEachFetchBlock(ctx context.Context, fn func([]FetchEvent) error) error {
	var sc blockScratch
	block := make([]FetchEvent, batchLen)
	for ci := range b.fetch {
		cu := b.fetch[ci].cursors()
		for off := 0; off < chunkLen; off += batchLen {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := cu.decodeBlock(block, &sc); err != nil {
				return fmt.Errorf("trace: fetch chunk %d: %w", ci, err)
			}
			if err := fn(block); err != nil {
				return err
			}
		}
		if !cu.done() {
			return fmt.Errorf("trace: fetch chunk %d: %w", ci, errColumn)
		}
	}
	tail := b.nf & chunkMask
	for off := 0; off < tail; off += batchLen {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := min(batchLen, tail-off)
		for i := 0; i < m; i++ {
			block[i] = fetchEventAt(b.fstage, off+i)
		}
		if err := fn(block[:m]); err != nil {
			return err
		}
	}
	return nil
}

// forEachDataBlock is forEachFetchBlock for the data stream.
func (b *Buffer) forEachDataBlock(ctx context.Context, fn func([]DataEvent) error) error {
	var sc blockScratch
	block := make([]DataEvent, batchLen)
	for ci := range b.data {
		cu := b.data[ci].cursors()
		for off := 0; off < chunkLen; off += batchLen {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := cu.decodeBlock(block, &sc); err != nil {
				return fmt.Errorf("trace: data chunk %d: %w", ci, err)
			}
			if err := fn(block); err != nil {
				return err
			}
		}
		if !cu.done() {
			return fmt.Errorf("trace: data chunk %d: %w", ci, errColumn)
		}
	}
	tail := b.nd & chunkMask
	for off := 0; off < tail; off += batchLen {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := min(batchLen, tail-off)
		for i := 0; i < m; i++ {
			block[i] = dataEventAt(b.dstage, off+i)
		}
		if err := fn(block[:m]); err != nil {
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
