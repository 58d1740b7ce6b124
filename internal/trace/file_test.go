package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
)

// buildStream deterministically expands fuzz bytes into an event mix: each
// 5-byte group is one event whose control byte picks the stream and the
// address-movement pattern, so the fuzzer steers the columns through
// sequential runs, sign-alternating deltas, random jumps and max-magnitude
// wraps — the cases that stress delta/varint encoding.
func buildStream(data []byte) (*Buffer, []FetchEvent, []DataEvent) {
	b := new(Buffer)
	var fs []FetchEvent
	var ds []DataEvent
	addr, prev := uint32(0x1000), uint32(0)
	for i := 0; i+5 <= len(data); i += 5 {
		ctl := data[i]
		d := binary.LittleEndian.Uint32(data[i+1 : i+5])
		switch ctl % 6 {
		case 0: // sequential packet
			addr += 8
		case 1: // short backward branch
			addr -= d % 4096
		case 2: // alternating-sign delta
			if i%2 == 0 {
				addr += d % 256
			} else {
				addr -= d % 256
			}
		case 3: // random jump
			addr = d
		case 4: // max-magnitude wraparound jump
			addr = 0xfffffff8 - addr
		case 5: // monotonic large stride
			addr += 0x10000
		}
		if ctl&0x40 != 0 {
			ev := DataEvent{
				Addr:  addr,
				Base:  addr - d%64,
				Disp:  int32(d % 64),
				Store: ctl&0x20 != 0,
				Size:  1 << (ctl % 4),
			}
			ds = append(ds, ev)
			b.OnData(ev)
			continue
		}
		ev := FetchEvent{
			Addr:  addr,
			Prev:  prev,
			Base:  addr - 8,
			Disp:  int32(d),
			Kind:  ControlKind(ctl % 4),
			First: len(fs) == 0,
		}
		prev = addr
		fs = append(fs, ev)
		b.OnFetch(ev)
	}
	return b, fs, ds
}

// FuzzVarintColumnRoundTrip drives adversarial address streams through the
// full encode→spill→load→decode cycle, asserting byte-exact event recovery
// and a byte-stable re-serialization. The spill must equal the reference
// encoder's (encode_ref_test.go), and so must the spill of the same stream
// appended in blocks whose lengths the fuzzer picks: cut byte c is a block
// of c+1 events, the list repeating; no cuts is one block per stream.
func FuzzVarintColumnRoundTrip(f *testing.F) {
	// Monotonic sequential packets.
	mono := make([]byte, 5*64)
	f.Add(mono, []byte(nil))
	// Random bytes (raw-fallback columns).
	r := rand.New(rand.NewSource(99))
	rnd := make([]byte, 5*64)
	r.Read(rnd)
	f.Add(rnd, []byte(nil))
	// Alternating-sign deltas.
	alt := make([]byte, 5*64)
	for i := 0; i+5 <= len(alt); i += 5 {
		alt[i] = 2
		binary.LittleEndian.PutUint32(alt[i+1:], 200)
	}
	f.Add(alt, []byte(nil))
	// Max-magnitude jumps bouncing across the address space.
	jump := make([]byte, 5*64)
	for i := 0; i+5 <= len(jump); i += 5 {
		jump[i] = 4
	}
	f.Add(jump, []byte(nil))
	// A mixed stream with data events.
	mix := make([]byte, 5*128)
	r.Read(mix)
	for i := 0; i+5 <= len(mix); i += 10 {
		mix[i] |= 0x40
	}
	f.Add(mix, []byte{0})
	f.Add(mix, []byte{6, 200, 31})
	f.Add(rnd, []byte{255, 254, 1})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		b, wantF, wantD := buildStream(data)
		var spill bytes.Buffer
		n, err := b.WriteTo(&spill)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(spill.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, spill.Len())
		}
		loaded, err := ReadBuffer(bytes.NewReader(spill.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		gotF, gotD := loaded.Fetches(), loaded.Datas()
		if len(gotF) != len(wantF) || len(gotD) != len(wantD) {
			t.Fatalf("counts %d/%d, want %d/%d", len(gotF), len(gotD), len(wantF), len(wantD))
		}
		for i := range wantF {
			if gotF[i] != wantF[i] {
				t.Fatalf("fetch %d: %+v != %+v", i, gotF[i], wantF[i])
			}
		}
		for i := range wantD {
			if gotD[i] != wantD[i] {
				t.Fatalf("data %d: %+v != %+v", i, gotD[i], wantD[i])
			}
		}
		var again bytes.Buffer
		if _, err := loaded.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spill.Bytes(), again.Bytes()) {
			t.Fatal("re-serialization differs")
		}

		s := script{fs: wantF, ds: wantD, order: make([]bool, b.Len())}
		for i := range s.order {
			s.order[i] = b.order[i>>6]&(1<<(i&63)) != 0
		}
		ref := s.reference()
		if !bytes.Equal(spill.Bytes(), ref) {
			t.Fatal("spill differs from the reference encoder's")
		}
		lens := []int{len(s.order) + 1}
		if len(cuts) > 0 {
			lens = lens[:0]
			for _, c := range cuts {
				lens = append(lens, 1+int(c))
			}
		}
		var blocked Buffer
		s.blocks(&blocked, lens)
		var got bytes.Buffer
		if _, err := blocked.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), ref) {
			t.Fatalf("blocks cut at %v spill differently from the reference", lens)
		}
	})
}

// FuzzWMTRACE2Reader throws arbitrary bytes at the reader: it must never
// panic, and anything it accepts must re-serialize to a semantically
// identical buffer (decode is total: a parsed file replays consistently or
// errors, never silently diverges).
func FuzzWMTRACE2Reader(f *testing.F) {
	seed := func(events []byte) []byte {
		b, _, _ := buildStream(events)
		var spill bytes.Buffer
		b.WriteTo(&spill)
		return spill.Bytes()
	}
	r := rand.New(rand.NewSource(7))
	ev := make([]byte, 5*200)
	r.Read(ev)
	f.Add(seed(ev))
	f.Add(seed(make([]byte, 5*64)))
	f.Add([]byte(fileMagic))
	mut := seed(ev)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBuffer(bytes.NewReader(data))
		if err != nil {
			return
		}
		var log1 eventLog
		if err := b.Replay(context.Background(), &log1, &log1); err != nil {
			// Accepted at load but a chunk fails block decode: that is the
			// degradation contract — an error, never wrong events.
			return
		}
		var out bytes.Buffer
		if _, err := b.WriteTo(&out); err != nil {
			t.Fatalf("accepted file fails to re-serialize: %v", err)
		}
		b2, err := ReadBuffer(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized file rejected: %v", err)
		}
		var log2 eventLog
		if err := b2.Replay(context.Background(), &log2, &log2); err != nil {
			t.Fatalf("re-serialized file fails replay: %v", err)
		}
		if len(log1.Fetches) != len(log2.Fetches) || len(log1.Datas) != len(log2.Datas) {
			t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
				len(log1.Fetches), len(log1.Datas), len(log2.Fetches), len(log2.Datas))
		}
		for i := range log1.Fetches {
			if log1.Fetches[i] != log2.Fetches[i] {
				t.Fatalf("round trip changed fetch %d", i)
			}
		}
		for i := range log1.Datas {
			if log1.Datas[i] != log2.Datas[i] {
				t.Fatalf("round trip changed data %d", i)
			}
		}
	})
}

// TestWMTRACE2EveryByteFlipDetected corrupts a spill one byte at a time —
// covering truncated varints, flipped compression flags, altered counts and
// checksum damage — and demands the reader reject every single mutation:
// the format has no byte whose corruption can pass silently.
func TestWMTRACE2EveryByteFlipDetected(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ev := make([]byte, 5*300)
	r.Read(ev)
	// Bias toward sequential packets so delta columns (flag bytes worth
	// flipping) actually appear.
	for i := 0; i+5 <= len(ev); i += 15 {
		ev[i] &^= 0xc7 // ctl%6 == 0, fetch
	}
	b, _, _ := buildStream(ev)
	var spill bytes.Buffer
	if _, err := b.WriteTo(&spill); err != nil {
		t.Fatal(err)
	}
	orig := spill.Bytes()
	mut := make([]byte, len(orig))
	for off := range orig {
		copy(mut, orig)
		mut[off] ^= 0xff
		if _, err := ReadBuffer(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte flip at offset %d of %d accepted", off, len(orig))
		}
	}
	// Truncation at every length must also be rejected.
	for n := 0; n < len(orig); n++ {
		if _, err := ReadBuffer(bytes.NewReader(orig[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(orig))
		}
	}
	// And the pristine bytes still load.
	if _, err := ReadBuffer(bytes.NewReader(orig)); err != nil {
		t.Fatal(err)
	}
}

// fixedRecordBytes is the size the same streams take as fixed-size records —
// an 8-byte magic, 19 bytes per fetch and 15 per data event, the layout of
// the uncompressed WMTRACE1 format earlier versions wrote. It is the
// yardstick the column compression is measured against.
func fixedRecordBytes(nf, nd int) int { return 8 + 19*nf + 15*nd }

// TestWMTRACE2CompressionFloor pins the size win where it is
// architecturally guaranteed: on sequential-packet-dominated streams (the
// paper's workloads), the spill must be at most half the fixed-record bytes.
func TestWMTRACE2CompressionFloor(t *testing.T) {
	var b Buffer
	addr := uint32(0x1000)
	for i := 0; i < 3*chunkLen/2; i++ {
		next := addr + 8
		if i%200 == 199 {
			next = addr - 1024 // loop back-edge
		}
		b.OnFetch(FetchEvent{Addr: next, Prev: addr, Base: addr, Disp: int32(next - addr), Kind: KindSeq})
		if i%5 == 0 {
			b.OnData(DataEvent{Addr: 0x8000 + uint32(i%4096)*4, Base: 0x8000, Disp: int32(i % 4096), Size: 4})
		}
		addr = next
	}
	var v2 bytes.Buffer
	if _, err := b.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	if v1 := fixedRecordBytes(b.NumFetches(), b.NumDatas()); 2*v2.Len() >= v1 {
		t.Fatalf("sequential stream: WMTRACE2 %dB vs fixed records %dB — compression < 2x", v2.Len(), v1)
	}
	// Besides the columns, the spill holds the order bitmap (one bit per
	// event) and the record framing.
	bitmap := int64(b.Len()+7) / 8
	if int64(v2.Len()) > b.EncodedBytes()+bitmap+4096 {
		t.Fatalf("spill %dB far exceeds in-memory encoded footprint %dB plus %dB of order bitmap",
			v2.Len(), b.EncodedBytes(), bitmap)
	}
}
