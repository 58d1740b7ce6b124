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

// The reference capture path: a plain per-event recorder of the WMTRACE3
// columns. It decides each event's flags on its own, from the format's
// rules written out with literal bit values, appends the stored values to
// plain slices, seals each column with encodeU32Col when the chunk fills,
// and frames the records itself — so the running encoders of columns.go,
// their layouts and the spill writer are each checked against it byte for
// byte.

// rawU32 serializes vals as 4-byte little-endian — the incompressible form.
func rawU32(vals []uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// encodeU32Col encodes one column as zigzag-varint deltas, falling back to
// raw when the delta stream does not beat the fixed-width form — an empty
// column included.
func encodeU32Col(vals []uint32) encCol {
	var enc []byte
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
	}
	if len(enc) >= 4*len(vals) {
		return encCol{flag: colRaw, data: rawU32(vals)}
	}
	return encCol{flag: colDelta, data: enc}
}

// refStream is one stream of the reference recorder: its sealed chunks and
// the flags bytes and stored values of its open chunk, one slice per
// numeric column in record order.
type refStream struct {
	sealed []encChunk
	flags  []byte
	cols   [][]uint32
	n      int // events recorded
}

// add records one event's flags byte, sealing the chunk when it fills.
func (st *refStream) add(flags byte) {
	st.flags = append(st.flags, flags)
	st.n++
	if len(st.flags) == chunkLen {
		st.sealed = append(st.sealed, st.seal())
	}
}

// seal encodes the open chunk and starts the next.
func (st *refStream) seal() encChunk {
	ch := encChunk{n: len(st.flags), bytes: slices.Clone(st.flags)}
	for i, vals := range st.cols {
		ch.cols = append(ch.cols, encodeU32Col(vals))
		st.cols[i] = nil
	}
	st.flags = nil
	return ch
}

// refBuffer is the reference recorder.
type refBuffer struct {
	f refStream // addr, prev, base, disp
	d refStream // base, disp, addr
}

func newRefBuffer() *refBuffer {
	return &refBuffer{f: refStream{cols: make([][]uint32, 4)}, d: refStream{cols: make([][]uint32, 3)}}
}

func (b *refBuffer) OnFetch(ev FetchEvent) {
	st := &b.f
	// prev is predicted as the chunk's previous addr, 0 at its start.
	predPrev := uint32(0)
	if n := len(st.cols[0]); n > 0 {
		predPrev = st.cols[0][n-1]
	}
	flags := byte(ev.Kind) & 0x1f
	if ev.First {
		flags |= 0x80
	}
	st.cols[0] = append(st.cols[0], ev.Addr)
	if ev.Prev != predPrev {
		flags |= 0x40
		st.cols[1] = append(st.cols[1], ev.Prev)
	}
	// Only a fall-through fetch has a prediction for base and disp.
	seqPredicted := ev.Kind == KindSeq && ev.Base == ev.Prev && ev.Disp == int32(ev.Addr-ev.Prev)
	if !seqPredicted {
		flags |= 0x20
		st.cols[2] = append(st.cols[2], ev.Base)
		st.cols[3] = append(st.cols[3], uint32(ev.Disp))
	}
	st.add(flags)
}

func (b *refBuffer) OnData(ev DataEvent) {
	st := &b.d
	flags := ev.Size & 0x3f
	if ev.Store {
		flags |= 0x80
	}
	st.cols[0] = append(st.cols[0], ev.Base)
	st.cols[1] = append(st.cols[1], uint32(ev.Disp))
	if ev.Addr != ev.Base+uint32(ev.Disp) {
		flags |= 0x40
		st.cols[2] = append(st.cols[2], ev.Addr)
	}
	st.add(flags)
}

// bytes spills the reference buffer in the WMTRACE3 format: the fetch
// stream's chunks, the data stream's, then the trailer. It seals the open
// chunks, so it ends the recording.
func (b *refBuffer) bytes() []byte {
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	bw.WriteString("WMTRACE3")
	rw := &recordWriter{w: bw}
	for _, s := range []struct {
		tag byte
		st  *refStream
	}{{'F', &b.f}, {'D', &b.d}} {
		if len(s.st.flags) > 0 {
			s.st.sealed = append(s.st.sealed, s.st.seal())
		}
		for _, ch := range s.st.sealed {
			rw.body = binary.AppendUvarint(rw.body[:0], uint64(ch.n))
			rw.body = append(rw.body, ch.bytes...)
			for _, c := range ch.cols {
				rw.body = append(rw.body, c.flag)
				rw.body = binary.AppendUvarint(rw.body, uint64(len(c.data)))
				rw.body = append(rw.body, c.data...)
			}
			rw.emit(s.tag)
		}
	}
	rw.body = binary.AppendUvarint(rw.body[:0], uint64(b.f.n))
	rw.body = binary.AppendUvarint(rw.body, uint64(b.d.n))
	rw.emit('E')
	if rw.err != nil {
		panic(rw.err)
	}
	bw.Flush()
	return out.Bytes()
}

// script is one recorded run: both streams and the order in which the
// simulator produced their events, which decides how the events arrive in
// stager blocks but not what a buffer stores.
type script struct {
	fs    []FetchEvent
	ds    []DataEvent
	order []bool // true: the next event is the data stream's
}

// appender records events one at a time: a Buffer or a refBuffer.
type appender interface {
	OnFetch(FetchEvent)
	OnData(DataEvent)
}

// perEvent records the run into b one event at a time.
func (s *script) perEvent(b appender) {
	fi, di := 0, 0
	for _, isData := range s.order {
		if isData {
			b.OnData(s.ds[di])
			di++
		} else {
			b.OnFetch(s.fs[fi])
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
			part.perEvent(b)
		}
	}
}

// blocks records the run into b the way a capture stager does, but with
// block lengths taken in turn from cuts (each stream keeps its own place in
// the list): a stream's pending events are appended as one block once they
// reach the current cut.
func (s *script) blocks(b *Buffer, cuts []int) {
	var pf []FetchEvent
	var pd []DataEvent
	cf, cd := 0, 0
	fi, di := 0, 0
	for _, isData := range s.order {
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
	ref := newRefBuffer()
	s.perEvent(ref)
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

// breakRates are the shares of events, in eighths, whose predictions
// genScript breaks: none, as in a simulator's streams, a few, half and all.
var breakRates = []int{0, 1, 4, 8}

// genScript draws a run of nf fetch and nd data events, in a random
// interleaving, whose stored columns take kinds k to k+3. With rate 0 every
// prediction of the format holds but at chunk starts: each fetch is a
// KindSeq fall-through with prev the last addr, base prev and disp
// addr − prev, and each data addr is base + disp. Each rate-in-8 break
// draws prev (0 at a fetch chunk's start, the start's own prediction), a
// non-Seq kind with base and disp left at the Seq prediction, base, disp
// or a data addr from another column.
func genScript(seed int64, k, nf, nd, rate int) *script {
	r := rand.New(rand.NewSource(seed))
	brk := func() bool { return r.Intn(8) < rate }
	s := &script{fs: make([]FetchEvent, nf), ds: make([]DataEvent, nd)}
	addr, alt, base, disp := genColumn(r, k, nf), genColumn(r, k+1, nf), genColumn(r, k+2, nf), genColumn(r, k+3, nf)
	var last uint32
	for i := range s.fs {
		ev := FetchEvent{Addr: addr[i], Prev: last, First: i == 0}
		if brk() {
			ev.Prev = alt[i]
			if i&chunkMask == 0 {
				ev.Prev = 0
			}
		}
		ev.Base, ev.Disp = ev.Prev, int32(ev.Addr-ev.Prev)
		if brk() {
			ev.Kind = ControlKind(1 + r.Intn(3))
		}
		if brk() {
			ev.Base = base[i]
		}
		if brk() {
			ev.Disp = int32(disp[i])
		}
		s.fs[i] = ev
		last = ev.Addr
	}
	base, disp, addr = genColumn(r, k, nd), genColumn(r, k+1, nd), genColumn(r, k+2, nd)
	for i := range s.ds {
		s.ds[i] = DataEvent{
			Addr:  base[i] + disp[i],
			Base:  base[i],
			Disp:  int32(disp[i]),
			Store: r.Intn(2) == 0,
			Size:  1 << r.Intn(4),
		}
		if brk() {
			s.ds[i].Addr = addr[i]
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
// reference bytes for every column character and every rate of broken
// predictions, at stream lengths around block and chunk boundaries, whether
// the events arrive in stager blocks, one at a time or in a mix of both;
// and a reloaded spill, short tails included, re-serializes to the same
// bytes and stays appendable.
func TestCaptureMatchesReference(t *testing.T) {
	counts := []int{0, 1, stageLen - 1, stageLen + 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 17}
	if testing.Short() {
		counts = []int{0, 1, stageLen + 1, chunkLen, 2*chunkLen + 17}
	}
	for k := range colKinds {
		for ci, nf := range counts {
			nd := counts[(ci+3)%len(counts)]
			rate := breakRates[(k+ci)%len(breakRates)]
			seed := int64(100*k + ci)
			s := genScript(seed, k, nf, nd, rate)
			want := s.reference()
			name := func(delivery string) string {
				return fmt.Sprintf("%s/breaks %d in 8/%s/%d+%d", colKinds[k].name, rate, delivery, nf, nd)
			}

			var perEvent, staged, mixed Buffer
			s.perEvent(&perEvent)
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
			more := genScript(seed+1, k+1, stageLen/2, stageLen/3, rate)
			more.staged(loaded)
			whole := script{
				fs:    append(slices.Clone(s.fs), more.fs...),
				ds:    append(slices.Clone(s.ds), more.ds...),
				order: append(slices.Clone(s.order), more.order...),
			}
			checkCapture(t, name("reloaded+staged"), loaded, &whole, whole.reference())
		}
	}
}

// TestCaptureAllocations pins what a capture allocates: about the encoded
// bytes the buffer keeps, plus a constant — no staging chunks and no
// per-chunk temporaries. The columns here cover every character, one-byte
// deltas to the raw fallback.
func TestCaptureAllocations(t *testing.T) {
	// The constant: seven open columns whose encoders each double up to
	// the 5 bytes per value of a chunk of worst-case varints, plus 256 KiB
	// for the stager's blocks.
	const fixed = 7*2*5*chunkLen + 256<<10
	s := genScript(5, 0, 5*chunkLen+99, 4*chunkLen+7, 4)
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
