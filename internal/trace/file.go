package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// WMTRACE4 is the binary trace file format, for trace-driven evaluation
// without re-running the simulator: the compressed column chunks of
// columns.go, spilled verbatim — a sealed chunk's bytes on disk are its
// bytes in memory, so loading a spill is adoption, not transcoding. Any
// other magic, including the WMTRACE1, WMTRACE2 and WMTRACE3 of earlier
// versions, is a decode error; spill directories are caches, so such a
// file costs one re-capture. WMTRACE3 stored one fetch event per packet;
// WMTRACE4 stores fetch runs (FetchEvent.Run).
//
// Record layout. After the 8-byte magic, the file is a sequence of
// CRC-framed records, each one sealed column chunk or the trailer:
//
//	record:  tag(1) uvarint(bodyLen) body crc32(body, IEEE, 4 bytes LE)
//	tag 'F': fetch chunk — body: uvarint(n) kind[n] col(addr) col(prev)
//	         col(base) col(disp) col(run) col(shift)
//	tag 'D': data chunk  — body: uvarint(n) meta[n] col(base) col(disp)
//	         col(addr)
//	tag 'E': trailer     — body: uvarint(nf) uvarint(nd)
//	col:     flag(1) uvarint(payloadLen) payload
//
// The byte column comes first, so the parser knows how many values each
// column holds: n for a fetch's addr and a data access's base and disp,
// and for a side column the number of events whose byte flags it — prev
// (kind bit 6), base and disp (kind bit 5), the packet shift (kind bit 3),
// the run length (kind bit 2), a data access's addr (meta bit 6). Kind
// bits 0–1 hold the ControlKind, bit 7 the first fetch, and bit 4 must be
// clear. A col payload is either raw 4-byte little-endian values (flag 0)
// or zigzag-varint wrapping first differences (flag 1) — see columns.go.
// A chunk holds chunkLen events except the last chunk of each stream,
// which may be shorter (1..chunkLen); all fetch chunks come first, in
// stream order, then all data chunks. The trailer is last — trailing bytes
// after it are an error, so truncation anywhere is detected. Every body is
// CRC-checked on read: corruption (flipped flags included) fails the load
// rather than decoding to wrong events. The trailer counts events, so a
// fetch run counts once however many packets it holds.

// FileMagic opens every trace file, and names its format.
const FileMagic = "WMTRACE4"

const (
	recFetch = 'F'
	recData  = 'D'
	recEnd   = 'E'

	// maxRecordBody bounds one record's body allocation while reading: a
	// worst-case legitimate chunk (a full chunk's byte column and six raw
	// columns) is under 850KB, so 4MB catches crafted lengths long before
	// allocation hurts.
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
	rw.body = append(rw.body, ch.bytes...)
	for _, c := range ch.cols {
		rw.body = append(rw.body, c.flag)
		rw.body = binary.AppendUvarint(rw.body, uint64(len(c.data)))
		rw.body = append(rw.body, c.data...)
	}
	rw.emit(tag)
}

// stream frames one stream's sealed chunks and then its open chunk, if it
// holds any events.
func (rw *recordWriter) stream(tag byte, sealed []encChunk, open *chunkEnc, layout []byte) {
	for i := range sealed {
		rw.chunk(tag, &sealed[i])
	}
	if len(open.bytes) > 0 {
		ch := open.chunk(layout)
		rw.chunk(tag, &ch)
	}
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

// WriteTo spills the buffer to w in the WMTRACE4 file format: the fetch
// stream's chunks, then the data stream's, sealed chunks verbatim and the
// open chunks sealed from their encoders without re-encoding, then the
// trailer. It implements io.WriterTo. A buffer that was handed a malformed
// fetch event writes nothing and returns the error naming that event.
func (b *Buffer) WriteTo(w io.Writer) (int64, error) {
	if b.err != nil {
		return 0, b.err
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if _, err := bw.WriteString(FileMagic); err != nil {
		return cw.n, err
	}
	rw := &recordWriter{w: bw}
	rw.stream(recFetch, b.fetch, &b.fenc, fetchLayout)
	rw.stream(recData, b.data, &b.denc, dataLayout)
	rw.body = binary.AppendUvarint(rw.body[:0], uint64(b.nf))
	rw.body = binary.AppendUvarint(rw.body, uint64(b.nd))
	rw.emit(recEnd)
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

// parseChunk decodes one chunk body whose numeric columns follow layout.
// The returned chunk's columns alias the body.
func parseChunk(body []byte, layout []byte) (encChunk, error) {
	p := bodyParser{data: body}
	n, err := p.chunkCount()
	if err != nil {
		return encChunk{}, err
	}
	ch := encChunk{n: n, cols: make([]encCol, len(layout))}
	if ch.bytes, err = p.take(n); err != nil {
		return encChunk{}, err
	}
	for i, f := range layout {
		if ch.cols[i], err = p.col(values(ch.bytes, f)); err != nil {
			return encChunk{}, err
		}
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
	if b.nd > 0 {
		return fmt.Errorf("trace: fetch chunk after data chunks")
	}
	if b.nf&chunkMask != 0 {
		return fmt.Errorf("trace: fetch chunk after the stream's tail chunk")
	}
	if ch.n == chunkLen {
		b.fetch = append(b.fetch, ch)
		b.nf += chunkLen
		return nil
	}
	if err := decodeChunk(&ch, b.appendFetches); err != nil {
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
	if err := decodeChunk(&ch, b.appendDatas); err != nil {
		return fmt.Errorf("trace: data tail chunk: %w", err)
	}
	return nil
}

// adoptTrailer validates the trailer against the adopted chunks.
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
	if !p.done() {
		return fmt.Errorf("trace: trailing bytes in trailer")
	}
	return nil
}

// ReadBuffer loads a WMTRACE4 stream into a new Buffer, so capture →
// WriteTo → ReadBuffer → Replay is indistinguishable from replaying the
// original capture. Sealed chunks are adopted verbatim (CRC-checked, no
// re-encode); a partial tail chunk is loaded into the open chunk's encoder
// so the buffer stays appendable.
func ReadBuffer(r io.Reader) (*Buffer, error) {
	b := new(Buffer)
	if err := readBuffer(bufio.NewReaderSize(r, 1<<16), b); err != nil {
		return nil, fmt.Errorf("trace: loading buffer: %w", err)
	}
	return b, nil
}

// readBuffer parses a WMTRACE4 file, magic first, into b.
func readBuffer(br *bufio.Reader, b *Buffer) error {
	magic := make([]byte, len(FileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != FileMagic {
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
			ch, err := parseChunk(body, fetchLayout)
			if err != nil {
				return err
			}
			if err := b.adoptFetchChunk(ch); err != nil {
				return err
			}
		case recData:
			ch, err := parseChunk(body, dataLayout)
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
