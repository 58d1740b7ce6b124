package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// The reference capture path: events staged one by one into
// structure-of-arrays chunks, each full chunk encoded column by column in a
// second pass, and a spill writer that walks the order bitmap one bit at a
// time. It is the first implementation of the WMTRACE2 columns, kept here
// so the running encoders of columns.go can be checked against it byte for
// byte.

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

// rawU32 serializes vals as 4-byte little-endian — the incompressible form.
func rawU32(vals []uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// encodeU32Col encodes one column as zigzag-varint deltas, falling back to
// raw the moment the delta stream stops beating the fixed-width form.
func encodeU32Col(vals []uint32) encCol {
	limit := 4 * len(vals)
	enc := make([]byte, 0, len(vals)+len(vals)/2)
	prev := uint32(0)
	for _, v := range vals {
		d := v - prev // wrapping delta
		prev = v
		zz := (d << 1) ^ uint32(int32(d)>>31) // zigzag: small |delta| → small zz
		for zz >= 0x80 {
			enc = append(enc, byte(zz)|0x80)
			zz >>= 7
		}
		enc = append(enc, byte(zz))
		if len(enc) >= limit {
			return encCol{flag: colRaw, data: rawU32(vals)}
		}
	}
	return encCol{flag: colDelta, data: enc}
}

// encodeI32Col encodes a signed column via its two's-complement bits.
func encodeI32Col(vals []int32) encCol {
	tmp := make([]uint32, len(vals))
	for i, v := range vals {
		tmp[i] = uint32(v)
	}
	return encodeU32Col(tmp)
}

// sealFetchChunk compresses the first n staged fetch events.
func sealFetchChunk(st *fetchChunk, n int) encChunk {
	kind := make([]byte, n)
	copy(kind, st.kind[:n])
	return encChunk{
		n: n,
		cols: []encCol{
			encodeU32Col(st.addr[:n]),
			encodeU32Col(st.prev[:n]),
			encodeU32Col(st.base[:n]),
			encodeI32Col(st.disp[:n]),
		},
		bytes: kind,
	}
}

// sealDataChunk compresses the first n staged data events.
func sealDataChunk(st *dataChunk, n int) encChunk {
	meta := make([]byte, n)
	copy(meta, st.meta[:n])
	return encChunk{
		n: n,
		cols: []encCol{
			encodeU32Col(st.addr[:n]),
			encodeU32Col(st.base[:n]),
			encodeI32Col(st.disp[:n]),
		},
		bytes: meta,
	}
}

// refBuffer is the reference recorder: per-event staging, sealing on fill.
type refBuffer struct {
	fetch  []encChunk
	data   []encChunk
	fstage fetchChunk
	dstage dataChunk
	nf, nd int
	order  []uint64
	n      int
}

func (b *refBuffer) pushOrder(isData bool) {
	if b.n&63 == 0 {
		b.order = append(b.order, 0)
	}
	if isData {
		b.order[b.n>>6] |= 1 << (b.n & 63)
	}
	b.n++
}

func (b *refBuffer) OnFetch(ev FetchEvent) {
	b.putFetch(&ev)
	b.pushOrder(false)
}

func (b *refBuffer) putFetch(ev *FetchEvent) {
	i := b.nf & chunkMask
	st := &b.fstage
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

func (b *refBuffer) OnData(ev DataEvent) {
	b.putData(&ev)
	b.pushOrder(true)
}

func (b *refBuffer) putData(ev *DataEvent) {
	i := b.nd & chunkMask
	st := &b.dstage
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

// bytes spills the reference buffer in the WMTRACE2 format.
func (b *refBuffer) bytes() []byte {
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	bw.WriteString(fileMagic)
	rw := &recordWriter{w: bw}
	fi, di := 0, 0
	for i := 0; i < b.n; i++ {
		if b.order[i>>6]&(1<<(i&63)) != 0 {
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
	if tail := b.nf & chunkMask; tail > 0 {
		ch := sealFetchChunk(&b.fstage, tail)
		rw.chunk(recFetch, &ch)
	}
	if tail := b.nd & chunkMask; tail > 0 {
		ch := sealDataChunk(&b.dstage, tail)
		rw.chunk(recData, &ch)
	}
	rw.body = binary.AppendUvarint(rw.body[:0], uint64(b.nf))
	rw.body = binary.AppendUvarint(rw.body, uint64(b.nd))
	for i := 0; i < (b.n+7)/8; i++ {
		rw.body = append(rw.body, byte(b.order[i>>3]>>((i&7)*8)))
	}
	rw.emit(recEnd)
	if rw.err != nil {
		panic(rw.err)
	}
	bw.Flush()
	return out.Bytes()
}

// script is one recorded run: both streams and their program-order
// interleaving.
type script struct {
	fs    []FetchEvent
	ds    []DataEvent
	order []bool // true: the next event is the data stream's
}

// perEvent records the run into fetch and data one event at a time.
func (s *script) perEvent(fetch FetchSink, data DataSink) {
	fi, di := 0, 0
	for _, isData := range s.order {
		if isData {
			data.OnData(s.ds[di])
			di++
		} else {
			fetch.OnFetch(s.fs[fi])
			fi++
		}
	}
}

// staged records the run into b through a capture stager.
func (s *script) staged(b *Buffer) {
	st := NewCapture(b)
	fi, di := 0, 0
	for _, isData := range s.order {
		if isData {
			*st.NextData() = s.ds[di]
			di++
		} else {
			*st.NextFetch() = s.fs[fi]
			fi++
		}
	}
	st.Flush()
}

// mixed records the run into b in segments of random length, alternately
// through a fresh capture stager and one event at a time, so staged blocks
// start at every offset of the open chunk.
func (s *script) mixed(b *Buffer, r *rand.Rand) {
	fi, di := 0, 0
	for seg := 0; len(s.order) > fi+di; seg++ {
		part := script{}
		for range 1 + r.Intn(3*stageLen) {
			if fi+di == len(s.order) {
				break
			}
			if s.order[fi+di] {
				part.ds = append(part.ds, s.ds[di])
				di++
				part.order = append(part.order, true)
			} else {
				part.fs = append(part.fs, s.fs[fi])
				fi++
				part.order = append(part.order, false)
			}
		}
		if seg%2 == 0 {
			part.staged(b)
		} else {
			part.perEvent(b, b)
		}
	}
}

// blocks records the run into b the way a capture stager does, but with
// block lengths taken in turn from cuts (each stream keeps its own place in
// the list): every event's order bit is recorded as it arrives, and a
// stream's pending events are appended as one block once they reach the
// current cut.
func (s *script) blocks(b *Buffer, cuts []int) {
	var pf []FetchEvent
	var pd []DataEvent
	cf, cd := 0, 0
	fi, di := 0, 0
	for _, isData := range s.order {
		b.pushOrder(isData)
		if isData {
			pd = append(pd, s.ds[di])
			di++
			if len(pd) == cuts[cd%len(cuts)] {
				b.appendDatas(pd)
				pd, cd = pd[:0], cd+1
			}
		} else {
			pf = append(pf, s.fs[fi])
			fi++
			if len(pf) == cuts[cf%len(cuts)] {
				b.appendFetches(pf)
				pf, cf = pf[:0], cf+1
			}
		}
	}
	b.appendFetches(pf)
	b.appendDatas(pd)
}

// reference returns the reference recorder's spill of the run.
func (s *script) reference() []byte {
	var ref refBuffer
	s.perEvent(&ref, &ref)
	return ref.bytes()
}

// colKinds generate one numeric column each, value i from value i-1: the
// column characters that decide between the delta and the raw form.
var colKinds = []struct {
	name string
	next func(r *rand.Rand, i int, prev uint32) uint32
}{
	// One-byte deltas.
	{"narrow", func(r *rand.Rand, _ int, p uint32) uint32 {
		if r.Intn(8) == 0 {
			return p - 8
		}
		return p + 8
	}},
	// Deltas of up to 2^20 either way: three-byte varints, still delta.
	{"wide", func(r *rand.Rand, _ int, p uint32) uint32 {
		return p + uint32(r.Intn(1<<21)) - 1<<20
	}},
	// Random values: five-byte varints, the raw fallback.
	{"random", func(r *rand.Rand, _ int, _ uint32) uint32 { return r.Uint32() }},
	// Narrow for the first fifth of each chunk, random after it: a chunk
	// that turns raw late, and short tails that stay delta.
	{"switch", func(r *rand.Rand, i int, p uint32) uint32 {
		if i&chunkMask < chunkLen/5 {
			return p + 4
		}
		return r.Uint32()
	}},
	// Narrow with ±2^31 wraps, the widest zigzag value.
	{"wrap", func(r *rand.Rand, _ int, p uint32) uint32 {
		if r.Intn(4) == 0 {
			return p + 1<<31
		}
		return p + 8
	}},
}

// genColumn draws n values of column kind k.
func genColumn(r *rand.Rand, k, n int) []uint32 {
	out := make([]uint32, n)
	var p uint32
	for i := range out {
		p = colKinds[k%len(colKinds)].next(r, i, p)
		out[i] = p
	}
	return out
}

// genScript draws a run of nf fetch and nd data events whose columns take
// kinds k, k+1 and k+2, in a random interleaving.
func genScript(seed int64, k, nf, nd int) *script {
	r := rand.New(rand.NewSource(seed))
	s := &script{fs: make([]FetchEvent, nf), ds: make([]DataEvent, nd)}
	addr, base, disp := genColumn(r, k, nf), genColumn(r, k+1, nf), genColumn(r, k+2, nf)
	for i := range s.fs {
		s.fs[i] = FetchEvent{
			Addr:  addr[i],
			Base:  base[i],
			Disp:  int32(disp[i]),
			Kind:  ControlKind(r.Intn(4)),
			First: i == 0,
		}
		if i > 0 {
			s.fs[i].Prev = addr[i-1]
		}
	}
	addr, base, disp = genColumn(r, k, nd), genColumn(r, k+1, nd), genColumn(r, k+2, nd)
	for i := range s.ds {
		s.ds[i] = DataEvent{
			Addr:  addr[i],
			Base:  base[i],
			Disp:  int32(disp[i]),
			Store: r.Intn(2) == 0,
			Size:  1 << r.Intn(4),
		}
	}
	for left, dleft := nf+nd, nd; left > 0; left-- {
		isData := r.Intn(left) < dleft
		if isData {
			dleft--
		}
		s.order = append(s.order, isData)
	}
	return s
}

// checkCapture fails the test unless b holds exactly the run s and spills
// to the reference bytes want, and unless its spill reloads to a buffer
// that spills the same bytes.
func checkCapture(t *testing.T, name string, b *Buffer, s *script, want []byte) {
	t.Helper()
	var got bytes.Buffer
	if _, err := b.WriteTo(&got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: spill of %d bytes differs from the reference's %d", name, got.Len(), len(want))
	}
	if !slices.Equal(b.Fetches(), s.fs) || !slices.Equal(b.Datas(), s.ds) || b.Len() != len(s.order) {
		t.Fatalf("%s: recorded streams differ from the run", name)
	}
	loaded, err := ReadBuffer(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("%s: reloaded spill re-serializes differently", name)
	}
}

// TestCaptureMatchesReference: the running encoders spill exactly the
// reference bytes for every column character, at stream lengths around
// block and chunk boundaries, whether the events arrive in stager blocks,
// one at a time or in a mix of both; and a reloaded spill, short tails
// included, re-serializes to the same bytes and stays appendable.
func TestCaptureMatchesReference(t *testing.T) {
	counts := []int{0, 1, stageLen - 1, stageLen + 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 17}
	if testing.Short() {
		counts = []int{0, 1, stageLen + 1, chunkLen, 2*chunkLen + 17}
	}
	for k := range colKinds {
		for ci, nf := range counts {
			nd := counts[(ci+3)%len(counts)]
			seed := int64(100*k + ci)
			s := genScript(seed, k, nf, nd)
			want := s.reference()
			name := func(delivery string) string {
				return fmt.Sprintf("%s/%s/%d+%d", colKinds[k].name, delivery, nf, nd)
			}

			var perEvent, staged, mixed Buffer
			s.perEvent(&perEvent, &perEvent)
			checkCapture(t, name("per-event"), &perEvent, s, want)
			s.staged(&staged)
			checkCapture(t, name("staged"), &staged, s, want)
			s.mixed(&mixed, rand.New(rand.NewSource(seed)))
			checkCapture(t, name("mixed"), &mixed, s, want)

			// A reloaded buffer continues its open chunks where the spill
			// left them.
			loaded, err := ReadBuffer(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			more := genScript(seed+1, k+1, stageLen/2, stageLen/3)
			more.staged(loaded)
			whole := script{
				fs:    append(slices.Clone(s.fs), more.fs...),
				ds:    append(slices.Clone(s.ds), more.ds...),
				order: append(slices.Clone(s.order), more.order...),
			}
			checkCapture(t, name("reloaded+staged"), loaded, &whole, whole.reference())
		}
	}
	// Both streams complete a chunk within one word of the order bitmap,
	// the fetch stream first and then the data stream first.
	for first := range 2 {
		s := genScript(int64(first), 0, chunkLen+5, chunkLen+5)
		for i := range s.order {
			s.order[i] = i%2 != first
		}
		var staged Buffer
		s.staged(&staged)
		checkCapture(t, fmt.Sprintf("alternating, data first %v", first == 1), &staged, s, s.reference())
	}
}

// TestCaptureAllocations pins what a capture allocates: about the encoded
// bytes the buffer keeps, plus a constant — no staging chunks and no
// per-chunk temporaries. The columns here cover every character, one-byte
// deltas to the raw fallback.
func TestCaptureAllocations(t *testing.T) {
	// The constant: seven open columns whose encoders each double up to
	// the 5 bytes per value of a chunk of worst-case varints, plus 256 KiB
	// for the stager's blocks and the order bitmap's growth.
	const fixed = 7*2*5*chunkLen + 256<<10
	s := genScript(5, 0, 5*chunkLen+99, 4*chunkLen+7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := new(Buffer)
	s.staged(b)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	limit := uint64(1.1*float64(b.EncodedBytes())) + fixed
	t.Logf("captured %d events: %d bytes allocated, %d encoded", b.Len(), alloc, b.EncodedBytes())
	if alloc > limit {
		t.Fatalf("capture of %d events allocated %d bytes, over 1.1 × %d encoded + %d = %d",
			b.Len(), alloc, b.EncodedBytes(), fixed, limit)
	}
}
