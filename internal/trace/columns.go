package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
)

// Compressed column encoding — the in-memory (and WMTRACE2 on-disk)
// representation of an event chunk.
//
// Trace addresses are overwhelmingly sequential fetch packets: consecutive
// column values differ by a small constant (the packet stride) except at
// branches, so first-differences are tiny integers almost everywhere. Each
// numeric column of a sealed chunk is therefore stored as zigzag-varint
// encoded wrapping deltas (previous value starts at 0), which lands near one
// byte per value on the paper's workloads — versus four raw. A column whose
// delta stream would not beat the fixed-width form (truly random addresses)
// falls back to raw 4-byte little-endian values; the choice is recorded in a
// per-column flag so the decoder never guesses. The one-byte kind/meta
// columns stay raw.
//
// Encoding happens as the events arrive: each column of a stream's open
// chunk has a running encoder (colEnc) that appends every block's values
// to its delta bytes in one pass, so no event is staged or copied on the
// way. Sealing a full chunk decides the form by length alone — the delta
// bytes stop beating raw exactly when they reach 4n — and copies the
// column out at its exact size; a raw column is derived from its delta
// bytes.
//
// Decoding happens block-wise during replay: a colCursor walks the encoded
// payload batchLen values at a time into the L2-hot scratch, so nothing above
// the decode layer sees the encoding and the bytes streamed per replay pass
// drop from ~21 per fetch event to the encoded ~5.

// Per-column encoding flags (the first byte of a serialized column).
const (
	colRaw   byte = 0 // 4-byte little-endian values; incompressible fallback
	colDelta byte = 1 // zigzag-varint wrapping first differences, prev = 0
)

// errColumn covers every way an encoded column payload can fail to decode:
// truncation mid-varint, a varint overflowing 32 bits, or a payload whose
// length disagrees with the value count.
var errColumn = errors.New("trace: corrupt column data")

// encCol is one encoded numeric column of a chunk.
type encCol struct {
	flag byte
	data []byte
}

// colEnc is the running encoder of one numeric column of a stream's open
// chunk: the zigzag-varint delta bytes of the values so far and the last
// value, which a chunk boundary resets to 0.
type colEnc struct {
	buf  []byte
	prev uint32
}

// open makes room for m more values at the varint worst case of 5 bytes
// each. It returns the buffer extended to its capacity, the write offset
// and the previous value, which close takes back once the values are
// written with putDelta. The buffer is reused from chunk to chunk; it
// doubles when it grows, so reaching its largest size allocates about
// twice that size in all.
func (e *colEnc) open(m int) ([]byte, int, uint32) {
	if need := len(e.buf) + 5*m; need > cap(e.buf) {
		e.buf = append(make([]byte, 0, max(need, 2*cap(e.buf))), e.buf...)
	}
	return e.buf[:cap(e.buf)], len(e.buf), e.prev
}

func (e *colEnc) close(buf []byte, n int, prev uint32) {
	e.buf, e.prev = buf[:n], prev
}

// putDelta writes v's wrapping delta from prev, zigzag-varint encoded, at
// buf[n:] and returns the new offset and v, the next delta's base. The
// encoding is deterministic, so re-serializing a buffer is byte-stable.
func putDelta(buf []byte, n int, prev, v uint32) (int, uint32) {
	d := v - prev
	zz := (d << 1) ^ uint32(int32(d)>>31) // zigzag: small |delta| → small zz
	for zz >= 0x80 {
		buf[n] = byte(zz) | 0x80
		n++
		zz >>= 7
	}
	buf[n] = byte(zz)
	return n + 1, v
}

// col returns the open column, holding n values, in the form a sealed chunk
// stores: the delta bytes themselves (aliased, not copied) unless they
// reach the 4n bytes of the fixed-width form, in which case the raw 4-byte
// little-endian values are derived from them.
func (e *colEnc) col(n int) encCol {
	if len(e.buf) < 4*n {
		return encCol{flag: colDelta, data: e.buf}
	}
	raw := make([]byte, 4*n)
	cu := colCursor{flag: colDelta, data: e.buf}
	var vals [batchLen]uint32
	for off := 0; off < n; off += batchLen {
		m := min(batchLen, n-off)
		// The encoder's own bytes always decode.
		_ = cu.decode(vals[:m])
		for i, v := range vals[:m] {
			binary.LittleEndian.PutUint32(raw[4*(off+i):], v)
		}
	}
	return encCol{flag: colRaw, data: raw}
}

// colCursor decodes one encoded column incrementally, a block at a time.
type colCursor struct {
	flag byte
	data []byte
	off  int
	prev uint32
}

func (c *encCol) cursor() colCursor {
	return colCursor{flag: c.flag, data: c.data}
}

// decode fills dst with the next len(dst) column values. Truncated or
// overlong varints surface as errColumn, never as wrong values.
func (c *colCursor) decode(dst []uint32) error {
	if c.flag == colRaw {
		need := 4 * len(dst)
		if c.off+need > len(c.data) {
			return errColumn
		}
		p := c.data[c.off : c.off+need]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(p[i*4:])
		}
		c.off += need
		return nil
	}
	data, off, prev := c.data, c.off, c.prev
	for i := range dst {
		if off >= len(data) {
			return errColumn
		}
		b := data[off]
		off++
		zz := uint32(b & 0x7f)
		if b >= 0x80 {
			s := uint(7)
			for {
				if off >= len(data) {
					return errColumn
				}
				b = data[off]
				off++
				if s == 28 && b > 0x0f {
					// A fifth byte may only carry the top 4 bits of a
					// 32-bit value; anything more is corruption.
					return errColumn
				}
				zz |= uint32(b&0x7f) << s
				if b < 0x80 {
					break
				}
				if s == 28 {
					return errColumn
				}
				s += 7
			}
		}
		d := (zz >> 1) ^ -(zz & 1) // un-zigzag
		prev += d
		dst[i] = prev
	}
	c.off, c.prev = off, prev
	return nil
}

// done reports whether the cursor consumed its payload exactly — checked at
// chunk boundaries so trailing garbage inside a column is an error, not
// silently ignored.
func (c *colCursor) done() bool { return c.off == len(c.data) }

// The numeric columns of each stream's chunks, in record order.
const (
	fetchCols = 4 // addr, prev, base, disp
	dataCols  = 3 // addr, base, disp
)

// encChunk is one chunk of either stream: its numeric columns in record
// order and its raw one-byte column — a fetch chunk's packed ControlKind
// and first flag, a data chunk's packed size and store flag.
type encChunk struct {
	n     int // events in the chunk; chunkLen except for a stream's last
	cols  []encCol
	bytes []byte
}

// encodedBytes sums the chunk's column payloads — the bytes a replay pass
// actually streams for it.
func (ch *encChunk) encodedBytes() int {
	total := len(ch.bytes)
	for _, c := range ch.cols {
		total += len(c.data)
	}
	return total
}

// chunkEnc encodes the open chunk of one stream as its events arrive.
type chunkEnc struct {
	cols  [fetchCols]colEnc // a data stream uses the first dataCols
	bytes []byte            // chunkLen capacity, handed to the sealed chunk
}

// nextBytes returns the next m slots of the raw byte column.
func (e *chunkEnc) nextBytes(m int) []byte {
	if e.bytes == nil {
		e.bytes = make([]byte, 0, chunkLen)
	}
	e.bytes = e.bytes[:len(e.bytes)+m]
	return e.bytes[len(e.bytes)-m:]
}

// putFetches encodes evs, which must fit in the open chunk, onto its
// columns, one column at a time.
func (e *chunkEnc) putFetches(evs []FetchEvent) {
	m, c := len(evs), &e.cols
	buf, n, p := c[0].open(m)
	for i := range evs {
		n, p = putDelta(buf, n, p, evs[i].Addr)
	}
	c[0].close(buf, n, p)
	buf, n, p = c[1].open(m)
	for i := range evs {
		n, p = putDelta(buf, n, p, evs[i].Prev)
	}
	c[1].close(buf, n, p)
	buf, n, p = c[2].open(m)
	for i := range evs {
		n, p = putDelta(buf, n, p, evs[i].Base)
	}
	c[2].close(buf, n, p)
	buf, n, p = c[3].open(m)
	for i := range evs {
		n, p = putDelta(buf, n, p, uint32(evs[i].Disp))
	}
	c[3].close(buf, n, p)
	kind := e.nextBytes(m)
	for i := range evs {
		k := uint8(evs[i].Kind) & fetchKindMask
		if evs[i].First {
			k |= fetchFirstFlag
		}
		kind[i] = k
	}
}

// putDatas is putFetches for the data stream.
func (e *chunkEnc) putDatas(evs []DataEvent) {
	m, c := len(evs), &e.cols
	buf, n, p := c[0].open(m)
	for i := range evs {
		n, p = putDelta(buf, n, p, evs[i].Addr)
	}
	c[0].close(buf, n, p)
	buf, n, p = c[1].open(m)
	for i := range evs {
		n, p = putDelta(buf, n, p, evs[i].Base)
	}
	c[1].close(buf, n, p)
	buf, n, p = c[2].open(m)
	for i := range evs {
		n, p = putDelta(buf, n, p, uint32(evs[i].Disp))
	}
	c[2].close(buf, n, p)
	meta := e.nextBytes(m)
	for i := range evs {
		mt := evs[i].Size & dataSizeMask
		if evs[i].Store {
			mt |= dataStoreFlag
		}
		meta[i] = mt
	}
}

// chunk returns the open chunk, n events in ncols numeric columns, as
// WriteTo spills it and replay decodes it. It aliases the encoder's bytes.
func (e *chunkEnc) chunk(n, ncols int) encChunk {
	ch := encChunk{n: n, cols: make([]encCol, ncols), bytes: e.bytes}
	for i := range ch.cols {
		ch.cols[i] = e.cols[i].col(n)
	}
	return ch
}

// seal returns the full open chunk as a sealed chunk that shares nothing
// with the encoder, each delta column copied out at its exact size, and
// starts the next chunk.
func (e *chunkEnc) seal(ncols int) encChunk {
	ch := e.chunk(chunkLen, ncols)
	for i := range ch.cols {
		if ch.cols[i].flag == colDelta {
			ch.cols[i].data = bytes.Clone(ch.cols[i].data)
		}
		e.cols[i] = colEnc{buf: e.cols[i].buf[:0]}
	}
	e.bytes = nil
	return ch
}

// encodedBytes sums the open chunk's column bytes.
func (e *chunkEnc) encodedBytes() int {
	total := len(e.bytes)
	for i := range e.cols {
		total += len(e.cols[i].buf)
	}
	return total
}

// blockScratch is the per-replay column decode scratch: one batchLen-value
// lane per numeric column, decoded into before events are assembled. One
// instance per replay pass, reused for every block.
type blockScratch [fetchCols][batchLen]uint32

// chunkCursors tracks a decode in progress over one chunk.
type chunkCursors struct {
	cols  [fetchCols]colCursor
	ncols int
	bytes []byte
	off   int
}

func (ch *encChunk) cursors() chunkCursors {
	cu := chunkCursors{ncols: len(ch.cols), bytes: ch.bytes}
	for i := range ch.cols {
		cu.cols[i] = ch.cols[i].cursor()
	}
	return cu
}

// next decodes the next m values of each numeric column into sc's lanes
// and returns the m bytes of the raw column beside them.
func (cu *chunkCursors) next(m int, sc *blockScratch) ([]byte, error) {
	if cu.off+m > len(cu.bytes) {
		return nil, errColumn
	}
	for i := range cu.cols[:cu.ncols] {
		if err := cu.cols[i].decode(sc[i][:m]); err != nil {
			return nil, err
		}
	}
	cu.off += m
	return cu.bytes[cu.off-m : cu.off], nil
}

// fetches decodes the next len(dst) events of a fetch chunk into dst.
func (cu *chunkCursors) fetches(dst []FetchEvent, sc *blockScratch) error {
	kind, err := cu.next(len(dst), sc)
	if err != nil {
		return err
	}
	for i, k := range kind {
		dst[i] = FetchEvent{
			Addr:  sc[0][i],
			Prev:  sc[1][i],
			Base:  sc[2][i],
			Disp:  int32(sc[3][i]),
			Kind:  ControlKind(k & fetchKindMask),
			First: k&fetchFirstFlag != 0,
		}
	}
	return nil
}

// datas decodes the next len(dst) events of a data chunk into dst.
func (cu *chunkCursors) datas(dst []DataEvent, sc *blockScratch) error {
	meta, err := cu.next(len(dst), sc)
	if err != nil {
		return err
	}
	for i, mt := range meta {
		dst[i] = DataEvent{
			Addr:  sc[0][i],
			Base:  sc[1][i],
			Disp:  int32(sc[2][i]),
			Size:  mt & dataSizeMask,
			Store: mt&dataStoreFlag != 0,
		}
	}
	return nil
}

// done reports whether every column was consumed exactly.
func (cu *chunkCursors) done() bool {
	for i := range cu.cols[:cu.ncols] {
		if !cu.cols[i].done() {
			return false
		}
	}
	return cu.off == len(cu.bytes)
}

// eachBlock decodes ch into successive blocks of block (batchLen events,
// reused) and hands each to fn, checking ctx before each block. A payload
// that fails to decode or is not consumed exactly is errColumn.
func eachBlock[E FetchEvent | DataEvent](ctx context.Context, ch *encChunk, block []E, sc *blockScratch,
	fn func([]E) error) error {
	cu := ch.cursors()
	for off := 0; off < ch.n; off += batchLen {
		if err := ctx.Err(); err != nil {
			return err
		}
		blk := block[:min(batchLen, ch.n-off)]
		var err error
		switch dst := any(blk).(type) {
		case []FetchEvent:
			err = cu.fetches(dst, sc)
		case []DataEvent:
			err = cu.datas(dst, sc)
		}
		if err != nil {
			return err
		}
		if err := fn(blk); err != nil {
			return err
		}
	}
	if !cu.done() {
		return errColumn
	}
	return nil
}
