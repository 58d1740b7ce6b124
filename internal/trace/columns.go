package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/bits"
)

// Compressed column encoding — the in-memory (and WMTRACE4 on-disk)
// representation of an event chunk.
//
// A chunk stores what the replay cannot derive, the way the paper's MAB
// relies on its inputs being predictable (§3). A fetch event is a run of
// packets (FetchEvent.Run). Its prev is predicted to be the last packet of
// the run before it in the chunk (0 for the chunk's first), its packet
// shift to be that run's shift (0 for the chunk's first), and its run
// length to be 0, a lone packet. A KindSeq fetch's base and disp are
// predicted as prev and addr − prev: the fall-through packet's base is the
// previous packet and its displacement the packet stride. A data access's
// addr is predicted as base + disp. Each event's one-byte flags (the kind
// or size, the first or store bit, and one bit per field whose prediction
// fails) go in the chunk's byte column; a field that must be stored goes
// in a side column, which holds one value per flagged event. The addr of a
// fetch and the base and disp of a data access have a value for every
// event. A stream's layout (fetchLayout, dataLayout) lists its numeric
// columns in record order by the flag that gates them.
//
// Trace addresses are overwhelmingly small forward steps: consecutive
// column values differ by a run's length in bytes except at branches, so
// first-differences are small integers almost everywhere. Each
// numeric column of a sealed chunk is therefore stored as zigzag-varint
// encoded wrapping deltas (previous value starts at 0), which lands near one
// byte per value on the paper's workloads — versus four raw. A column whose
// delta stream would not beat the fixed-width form of its own value count
// (truly random addresses) falls back to raw 4-byte little-endian values;
// the choice is recorded in a per-column flag so the decoder never guesses.
//
// Encoding happens as the events arrive: each column of a stream's open
// chunk has a running encoder (colEnc) that appends every block's values
// to its delta bytes in one pass, so no event is staged or copied on the
// way. Sealing a full chunk decides each column's form by length alone —
// the delta bytes stop beating raw exactly when they reach 4 bytes per
// value — and copies the column out at its exact size; a raw column is
// derived from its delta bytes.
//
// Decoding happens block-wise during replay: a colCursor walks the encoded
// payload a block at a time into the L2-hot scratch, a side column as many
// values as the block's flags ask for, and the events are assembled from
// the decoded values and the predictions, so nothing above the decode layer
// sees the encoding.

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
// little-endian values are derived from them. An empty column is raw.
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

// The numeric columns of each stream's chunks, in record order, each named
// by the flag of the byte column that marks an event as storing a value in
// it; 0 marks a column with a value for every event.
var (
	// addr, prev, base, disp, run, shift
	fetchLayout = []byte{0, fetchPrevFlag, fetchBaseFlag, fetchBaseFlag, fetchRunFlag, fetchShiftFlag}
	dataLayout  = []byte{0, 0, dataAddrFlag} // base, disp, addr
)

const fetchCols = 6 // the widest layout

// values counts the events of bs that store a value in a column of flag f.
// A flag is one bit, so the count is a population count, eight flags bytes
// at a time.
func values(bs []byte, f byte) int {
	if f == 0 {
		return len(bs)
	}
	mask, k := uint64(f)*0x0101010101010101, 0
	for ; len(bs) >= 8; bs = bs[8:] {
		k += bits.OnesCount64(binary.LittleEndian.Uint64(bs) & mask)
	}
	for _, b := range bs {
		k += bits.OnesCount8(b & f)
	}
	return k
}

// encChunk is one chunk of either stream: its byte column, one flags byte
// per event, and its numeric columns in layout order.
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
	cols  [fetchCols]colEnc // a data stream uses the first len(dataLayout)
	bytes []byte            // chunkLen capacity, handed to the sealed chunk
	last  uint32            // a fetch stream's last packet so far, prev's prediction
	// malformed is set once a fetch event the format cannot hold has been
	// put (see checkFetches).
	malformed bool
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
// columns. The shift column's running value is the last shift stored,
// which is the shift's prediction, since a shift is stored whenever it
// changes. An event that is no KindSeq stores its base and one whose shift
// is not the last stores its shift, so the first malformed event takes one
// of those branches, and they alone check for it, leaving the common path
// as it was.
func (e *chunkEnc) putFetches(evs []FetchEvent) {
	m, c := len(evs), &e.cols
	ab, an, ap := c[0].open(m)
	pb, pn, pp := c[1].open(m)
	bb, bn, bp := c[2].open(m)
	db, dn, dp := c[3].open(m)
	rb, rn, rp := c[4].open(m)
	sb, sn, sp := c[5].open(m)
	kind, last := e.nextBytes(m), e.last
	for i := range evs {
		ev := &evs[i]
		k := uint8(ev.Kind) & fetchKindMask
		if ev.First {
			k |= fetchFirstFlag
		}
		if ev.Prev != last {
			k |= fetchPrevFlag
			pn, pp = putDelta(pb, pn, pp, ev.Prev)
		}
		if ev.Kind != KindSeq || ev.Base != ev.Prev || uint32(ev.Disp) != ev.Addr-ev.Prev {
			k |= fetchBaseFlag
			if ev.Kind > KindIndirect {
				e.malformed = true
			}
			bn, bp = putDelta(bb, bn, bp, ev.Base)
			dn, dp = putDelta(db, dn, dp, uint32(ev.Disp))
		}
		if ev.Run != 0 {
			k |= fetchRunFlag
			rn, rp = putDelta(rb, rn, rp, uint32(ev.Run))
		}
		if uint32(ev.Shift) != sp {
			k |= fetchShiftFlag
			if ev.Shift >= maxShift {
				e.malformed = true
			}
			sn, sp = putDelta(sb, sn, sp, uint32(ev.Shift))
		}
		an, ap = putDelta(ab, an, ap, ev.Addr)
		last = ev.LastAddr()
		kind[i] = k
	}
	c[0].close(ab, an, ap)
	c[1].close(pb, pn, pp)
	c[2].close(bb, bn, bp)
	c[3].close(db, dn, dp)
	c[4].close(rb, rn, rp)
	c[5].close(sb, sn, sp)
	e.last = last
}

// putDatas is putFetches for the data stream.
func (e *chunkEnc) putDatas(evs []DataEvent) {
	m, c := len(evs), &e.cols
	bb, bn, bp := c[0].open(m)
	db, dn, dp := c[1].open(m)
	ab, an, ap := c[2].open(m)
	meta := e.nextBytes(m)
	for i := range evs {
		ev := &evs[i]
		mt := ev.Size & dataSizeMask
		if ev.Store {
			mt |= dataStoreFlag
		}
		if ev.Addr != ev.Base+uint32(ev.Disp) {
			mt |= dataAddrFlag
			an, ap = putDelta(ab, an, ap, ev.Addr)
		}
		bn, bp = putDelta(bb, bn, bp, ev.Base)
		dn, dp = putDelta(db, dn, dp, uint32(ev.Disp))
		meta[i] = mt
	}
	c[0].close(bb, bn, bp)
	c[1].close(db, dn, dp)
	c[2].close(ab, an, ap)
}

// chunk returns the open chunk, in the columns of layout, as WriteTo spills
// it and replay decodes it. It aliases the encoder's bytes.
func (e *chunkEnc) chunk(layout []byte) encChunk {
	ch := encChunk{n: len(e.bytes), cols: make([]encCol, len(layout)), bytes: e.bytes}
	for i, f := range layout {
		ch.cols[i] = e.cols[i].col(values(e.bytes, f))
	}
	return ch
}

// seal returns the full open chunk as a sealed chunk that shares nothing
// with the encoder, each delta column copied out at its exact size, and
// starts the next chunk.
func (e *chunkEnc) seal(layout []byte) encChunk {
	ch := e.chunk(layout)
	for i := range ch.cols {
		if ch.cols[i].flag == colDelta {
			ch.cols[i].data = bytes.Clone(ch.cols[i].data)
		}
		e.cols[i] = colEnc{buf: e.cols[i].buf[:0]}
	}
	e.bytes, e.last = nil, 0
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
	cols   [fetchCols]colCursor
	layout []byte
	bytes  []byte
	off    int
	last   uint32 // the last packet of the last fetch run decoded, prev's prediction
	shift  uint32 // the last fetch run's shift, the next one's prediction
}

func (ch *encChunk) cursors(layout []byte) chunkCursors {
	cu := chunkCursors{layout: layout, bytes: ch.bytes}
	for i := range ch.cols {
		cu.cols[i] = ch.cols[i].cursor()
	}
	return cu
}

// next returns the byte column of the next m events and decodes into sc's
// lanes the values those events store in each numeric column.
func (cu *chunkCursors) next(m int, sc *blockScratch) ([]byte, error) {
	if cu.off+m > len(cu.bytes) {
		return nil, errColumn
	}
	bs := cu.bytes[cu.off : cu.off+m]
	for i, f := range cu.layout {
		if err := cu.cols[i].decode(sc[i][:values(bs, f)]); err != nil {
			return nil, err
		}
	}
	cu.off += m
	return bs, nil
}

// fetches decodes the next len(dst) events of a fetch chunk into dst. A
// stored run length outside 1..MaxRun, a stored shift of 32 or more, which
// is no 32-bit packet size, or a set spare flag is errColumn.
func (cu *chunkCursors) fetches(dst []FetchEvent, sc *blockScratch) error {
	kind, err := cu.next(len(dst), sc)
	if err != nil {
		return err
	}
	last, shift, np, nb, nr, ns := cu.last, cu.shift, 0, 0, 0, 0
	var flags uint8
	for i, k := range kind {
		addr, prev := sc[0][i], last
		if k&fetchPrevFlag != 0 {
			prev = sc[1][np]
			np++
		}
		base, disp := prev, addr-prev
		if k&fetchBaseFlag != 0 {
			base, disp = sc[2][nb], sc[3][nb]
			nb++
		}
		var run uint32
		if k&fetchRunFlag != 0 {
			if run = sc[4][nr]; run-1 >= MaxRun {
				return errColumn
			}
			nr++
		}
		if k&fetchShiftFlag != 0 {
			if shift = sc[5][ns]; shift >= maxShift {
				return errColumn
			}
			ns++
		}
		flags |= k
		dst[i] = FetchEvent{
			Addr:  addr,
			Prev:  prev,
			Base:  base,
			Disp:  int32(disp),
			Kind:  ControlKind(k & fetchKindMask),
			First: k&fetchFirstFlag != 0,
			Run:   uint8(run),
			Shift: uint8(shift),
		}
		last = dst[i].LastAddr()
	}
	if flags&fetchSpareFlag != 0 {
		return errColumn
	}
	cu.last, cu.shift = last, shift
	return nil
}

// datas decodes the next len(dst) events of a data chunk into dst.
func (cu *chunkCursors) datas(dst []DataEvent, sc *blockScratch) error {
	meta, err := cu.next(len(dst), sc)
	if err != nil {
		return err
	}
	na := 0
	for i, mt := range meta {
		base, disp := sc[0][i], sc[1][i]
		addr := base + disp
		if mt&dataAddrFlag != 0 {
			addr = sc[2][na]
			na++
		}
		dst[i] = DataEvent{
			Addr:  addr,
			Base:  base,
			Disp:  int32(disp),
			Size:  mt & dataSizeMask,
			Store: mt&dataStoreFlag != 0,
		}
	}
	return nil
}

// done reports whether every column was consumed exactly.
func (cu *chunkCursors) done() bool {
	for i := range cu.layout {
		if !cu.cols[i].done() {
			return false
		}
	}
	return cu.off == len(cu.bytes)
}

// eachBlock decodes ch block by block and hands each block to fn: it
// decodes every block into the start of a slice next returns, as many
// events as that slice holds (at most batchLen) or as ch has left. It
// checks ctx before each batchLen events, so a slice of stageLen events
// takes a batch of batchLen/stageLen blocks between checks. A payload that
// fails to decode or is not consumed exactly is errColumn.
func eachBlock[E FetchEvent | DataEvent](ctx context.Context, ch *encChunk, sc *blockScratch,
	next func() []E, fn func([]E) error) error {
	layout := dataLayout
	if _, ok := any(next).(func() []FetchEvent); ok {
		layout = fetchLayout
	}
	cu := ch.cursors(layout)
	for off := 0; off < ch.n; {
		if off%batchLen == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		blk := next()
		blk = blk[:min(len(blk), ch.n-off)]
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
		off += len(blk)
	}
	if !cu.done() {
		return errColumn
	}
	return nil
}
