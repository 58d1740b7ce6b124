package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
)

// WMTRACE2 is the binary trace file format, for trace-driven evaluation
// without re-running the simulator: the compressed column chunks of
// columns.go, spilled verbatim — a sealed chunk's bytes on disk are its
// bytes in memory, so loading a spill is adoption, not transcoding. Any
// other magic, including the fixed-record WMTRACE1 of earlier versions, is
// a decode error; spill directories are caches, so such a file costs one
// re-capture.
//
// Record layout. After the 8-byte magic, the file is a sequence of
// CRC-framed records, each one sealed column chunk or the trailer:
//
//	record:  tag(1) uvarint(bodyLen) body crc32(body, IEEE, 4 bytes LE)
//	tag 'F': fetch chunk — body: uvarint(n) col(addr) col(prev) col(base)
//	         col(disp) kind[n]
//	tag 'D': data chunk  — body: uvarint(n) col(addr) col(base) col(disp)
//	         meta[n]
//	tag 'E': trailer     — body: uvarint(nf) uvarint(nd)
//	         orderBitmap[ceil((nf+nd)/8)]
//	col:     flag(1) uvarint(payloadLen) payload
//
// A col payload is either raw 4-byte little-endian values (flag 0) or
// zigzag-varint wrapping first differences (flag 1) — see columns.go. A
// chunk holds chunkLen events except the last chunk of each stream, which
// may be shorter (1..chunkLen); chunks appear in stream order, the two
// streams' chunks interleaved in completion order. The trailer's bitmap is
// one bit per event in program order, LSB-first within each byte: 0 =
// fetch, 1 = data; its popcount must equal nd and padding bits must be
// zero. The trailer is last — trailing bytes after it are an error, so
// truncation anywhere is detected. Every body is CRC-checked on read:
// corruption (flipped flags included) fails the load rather than decoding
// to wrong events.

const fileMagic = "WMTRACE2"

const (
	recFetch = 'F'
	recData  = 'D'
	recEnd   = 'E'

	// maxRecordBody bounds one record's body allocation while reading: a
	// worst-case legitimate chunk (five raw columns of a full chunk) is
	// under 700KB, so 4MB catches crafted lengths long before allocation
	// hurts.
	maxRecordBody = 4 << 20
)

// recordWriter assembles and emits CRC-framed records.
type recordWriter struct {
	w    *bufio.Writer
	body []byte
	err  error
}

// chunk frames one chunk as a record with tag.
func (rw *recordWriter) chunk(tag byte, ch *encChunk) {
	rw.body = binary.AppendUvarint(rw.body[:0], uint64(ch.n))
	for _, c := range ch.cols {
		rw.body = append(rw.body, c.flag)
		rw.body = binary.AppendUvarint(rw.body, uint64(len(c.data)))
		rw.body = append(rw.body, c.data...)
	}
	rw.body = append(rw.body, ch.bytes...)
	rw.emit(tag)
}

// emit frames the assembled body as one record.
func (rw *recordWriter) emit(tag byte) {
	if rw.err != nil {
		return
	}
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = tag
	n := binary.PutUvarint(hdr[1:], uint64(len(rw.body)))
	if _, err := rw.w.Write(hdr[:1+n]); err != nil {
		rw.err = err
		return
	}
	if _, err := rw.w.Write(rw.body); err != nil {
		rw.err = err
		return
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(rw.body))
	if _, err := rw.w.Write(crc[:]); err != nil {
		rw.err = err
	}
}

func (rw *recordWriter) trailer(nf, nd int, order []uint64) {
	rw.body = rw.body[:0]
	rw.body = binary.AppendUvarint(rw.body, uint64(nf))
	rw.body = binary.AppendUvarint(rw.body, uint64(nd))
	nb := (nf + nd + 7) / 8
	for _, w := range order[:nb/8] {
		rw.body = binary.LittleEndian.AppendUint64(rw.body, w)
	}
	if r := nb % 8; r > 0 {
		l := len(rw.body)
		rw.body = binary.LittleEndian.AppendUint64(rw.body, order[nb/8])[:l+r]
	}
	rw.emit(recEnd)
}

// WriteTo spills the buffer to w in the WMTRACE2 file format: sealed chunks
// verbatim, the open chunks sealed from their encoders without re-encoding,
// and the program-order interleaving in the trailer bitmap. It implements
// io.WriterTo.
func (b *Buffer) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return cw.n, err
	}
	rw := &recordWriter{w: bw}
	// Walk the interleaving emitting each stream's sealed chunks at the
	// moment the stream's event count crosses a chunk boundary, so the
	// record order is a pure function of the recorded events. A word of
	// the bitmap in which neither stream completes a chunk — all but about
	// one in five hundred — is counted whole.
	fi, di := 0, 0
	for wi := 0; wi < len(b.order) && rw.err == nil; wi++ {
		w := b.order[wi]
		k := min(64, b.n-64*wi)
		nd := bits.OnesCount64(w)
		if di&chunkMask+nd < chunkLen && fi&chunkMask+k-nd < chunkLen {
			fi += k - nd
			di += nd
			continue
		}
		for j := 0; j < k; j++ {
			if w&(1<<j) != 0 {
				di++
				if di&chunkMask == 0 {
					rw.chunk(recData, &b.data[(di>>chunkShift)-1])
				}
			} else {
				fi++
				if fi&chunkMask == 0 {
					rw.chunk(recFetch, &b.fetch[(fi>>chunkShift)-1])
				}
			}
		}
	}
	if tail := b.nf & chunkMask; tail > 0 && rw.err == nil {
		ch := b.fenc.chunk(tail, fetchCols)
		rw.chunk(recFetch, &ch)
	}
	if tail := b.nd & chunkMask; tail > 0 && rw.err == nil {
		ch := b.denc.chunk(tail, dataCols)
		rw.chunk(recData, &ch)
	}
	rw.trailer(b.nf, b.nd, b.order)
	if rw.err != nil {
		return cw.n, rw.err
	}
	return cw.n, bw.Flush()
}

// countingWriter tracks bytes written through it for WriteTo's return value.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// eofUnexpected maps a mid-record io.EOF to io.ErrUnexpectedEOF.
func eofUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// bodyParser walks one record body with bounds checks.
type bodyParser struct {
	data []byte
	off  int
}

func (p *bodyParser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.data[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: bad record varint")
	}
	p.off += n
	return v, nil
}

func (p *bodyParser) take(n int) ([]byte, error) {
	if n < 0 || p.off+n > len(p.data) {
		return nil, fmt.Errorf("trace: record body too short")
	}
	out := p.data[p.off : p.off+n]
	p.off += n
	return out, nil
}

func (p *bodyParser) done() bool { return p.off == len(p.data) }

// col parses one serialized column of n values.
func (p *bodyParser) col(n int) (encCol, error) {
	fb, err := p.take(1)
	if err != nil {
		return encCol{}, err
	}
	flag := fb[0]
	if flag != colRaw && flag != colDelta {
		return encCol{}, fmt.Errorf("trace: unknown column flag %#x", flag)
	}
	plen64, err := p.uvarint()
	if err != nil {
		return encCol{}, err
	}
	plen := int(plen64)
	if flag == colRaw && plen != 4*n {
		return encCol{}, fmt.Errorf("trace: raw column of %d values has %d payload bytes", n, plen)
	}
	payload, err := p.take(plen)
	if err != nil {
		return encCol{}, err
	}
	return encCol{flag: flag, data: payload}, nil
}

// chunkCount parses and validates a chunk's leading event count.
func (p *bodyParser) chunkCount() (int, error) {
	n64, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if n64 < 1 || n64 > chunkLen {
		return 0, fmt.Errorf("trace: chunk of %d events", n64)
	}
	return int(n64), nil
}

// parseChunk decodes one chunk body of ncols numeric columns. The returned
// chunk's columns alias the body.
func parseChunk(body []byte, ncols int) (encChunk, error) {
	p := bodyParser{data: body}
	n, err := p.chunkCount()
	if err != nil {
		return encChunk{}, err
	}
	ch := encChunk{n: n, cols: make([]encCol, ncols)}
	for i := range ch.cols {
		if ch.cols[i], err = p.col(n); err != nil {
			return encChunk{}, err
		}
	}
	if ch.bytes, err = p.take(n); err != nil {
		return encChunk{}, err
	}
	if !p.done() {
		return encChunk{}, fmt.Errorf("trace: trailing bytes in chunk")
	}
	return ch, nil
}

// adoptFetchChunk appends a parsed chunk to the loading buffer. A full
// chunk is adopted verbatim; a short chunk must be the stream's last and
// becomes the open chunk, decoded and fed to the encoder, so the buffer
// stays appendable.
func (b *Buffer) adoptFetchChunk(ch encChunk) error {
	if b.nf&chunkMask != 0 {
		return fmt.Errorf("trace: fetch chunk after the stream's tail chunk")
	}
	if ch.n == chunkLen {
		b.fetch = append(b.fetch, ch)
		b.nf += chunkLen
		return nil
	}
	var sc blockScratch
	if err := eachBlock(context.Background(), &ch, make([]FetchEvent, batchLen), &sc,
		func(blk []FetchEvent) error { b.appendFetches(blk); return nil }); err != nil {
		return fmt.Errorf("trace: fetch tail chunk: %w", err)
	}
	return nil
}

func (b *Buffer) adoptDataChunk(ch encChunk) error {
	if b.nd&chunkMask != 0 {
		return fmt.Errorf("trace: data chunk after the stream's tail chunk")
	}
	if ch.n == chunkLen {
		b.data = append(b.data, ch)
		b.nd += chunkLen
		return nil
	}
	var sc blockScratch
	if err := eachBlock(context.Background(), &ch, make([]DataEvent, batchLen), &sc,
		func(blk []DataEvent) error { b.appendDatas(blk); return nil }); err != nil {
		return fmt.Errorf("trace: data tail chunk: %w", err)
	}
	return nil
}

// adoptTrailer validates the trailer against the adopted chunks and
// installs the interleaving bitmap.
func (b *Buffer) adoptTrailer(body []byte) error {
	p := bodyParser{data: body}
	nf64, err := p.uvarint()
	if err != nil {
		return err
	}
	nd64, err := p.uvarint()
	if err != nil {
		return err
	}
	if nf64 != uint64(b.nf) || nd64 != uint64(b.nd) {
		return fmt.Errorf("trace: trailer counts %d/%d, chunks held %d/%d",
			nf64, nd64, b.nf, b.nd)
	}
	n := b.nf + b.nd
	bitmap, err := p.take((n + 7) / 8)
	if err != nil {
		return err
	}
	if !p.done() {
		return fmt.Errorf("trace: trailing bytes in trailer")
	}
	order := make([]uint64, (n+63)/64)
	ones := 0
	for i, bb := range bitmap {
		order[i>>3] |= uint64(bb) << ((i & 7) * 8)
		ones += bits.OnesCount8(bb)
	}
	if ones != b.nd {
		return fmt.Errorf("trace: order bitmap has %d data bits, want %d", ones, b.nd)
	}
	// Padding bits past the last event must be zero, so the bitmap has one
	// canonical form.
	if n&63 != 0 && len(order) > 0 && order[len(order)-1]>>(n&63) != 0 {
		return fmt.Errorf("trace: nonzero padding in order bitmap")
	}
	b.order = order
	b.n = n
	return nil
}

// ReadBuffer loads a WMTRACE2 stream into a new Buffer, preserving the
// interleaving, so capture → WriteTo → ReadBuffer → Replay is
// indistinguishable from replaying the original capture. Sealed chunks are
// adopted verbatim (CRC-checked, no re-encode); a partial tail chunk is
// loaded into the open chunk's encoder so the buffer stays appendable.
func ReadBuffer(r io.Reader) (*Buffer, error) {
	b := new(Buffer)
	if err := readBuffer(bufio.NewReaderSize(r, 1<<16), b); err != nil {
		return nil, fmt.Errorf("trace: loading buffer: %w", err)
	}
	return b, nil
}

// readBuffer parses a WMTRACE2 file, magic first, into b.
func readBuffer(br *bufio.Reader, b *Buffer) error {
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return fmt.Errorf("trace: bad magic %q", magic)
	}
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: reading record tag: %w", eofUnexpected(err))
		}
		bodyLen, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("trace: record length: %w", eofUnexpected(err))
		}
		if bodyLen > maxRecordBody {
			return fmt.Errorf("trace: record body of %d bytes exceeds limit", bodyLen)
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(br, body); err != nil {
			return fmt.Errorf("trace: record body: %w", eofUnexpected(err))
		}
		var crcb [4]byte
		if _, err := io.ReadFull(br, crcb[:]); err != nil {
			return fmt.Errorf("trace: record checksum: %w", eofUnexpected(err))
		}
		if got := crc32.ChecksumIEEE(body); got != binary.LittleEndian.Uint32(crcb[:]) {
			return fmt.Errorf("trace: record %q checksum mismatch", rune(tag))
		}
		switch tag {
		case recFetch:
			ch, err := parseChunk(body, fetchCols)
			if err != nil {
				return err
			}
			if err := b.adoptFetchChunk(ch); err != nil {
				return err
			}
		case recData:
			ch, err := parseChunk(body, dataCols)
			if err != nil {
				return err
			}
			if err := b.adoptDataChunk(ch); err != nil {
				return err
			}
		case recEnd:
			if err := b.adoptTrailer(body); err != nil {
				return err
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return fmt.Errorf("trace: trailing data after trailer")
			}
			return nil
		default:
			return fmt.Errorf("trace: unknown record tag %#x", tag)
		}
	}
}
