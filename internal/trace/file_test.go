package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// buildStream deterministically expands fuzz bytes into an event mix: each
// 5-byte group is one event whose control byte picks the stream and the
// address-movement pattern, so the fuzzer steers the columns through
// sequential runs, sign-alternating deltas, random jumps and max-magnitude
// wraps — the cases that stress delta/varint encoding. A fetch's prev is
// the last packet of the fetch run before it and its base and disp are
// prev and addr − prev, and a data addr is base + disp, so every
// prediction of the format holds, unless the control byte's top bit
// selects a break: then the top two bits of the group's value pick which
// of prev, base, disp and kind a fetch breaks, and a data event's addr
// moves off base + disp. A fetch whose control byte sets bit 5 is a run of
// up to MaxRun fall-through packets, its shift drawn from the value's top
// byte; any other fetch is a lone 8-byte packet.
func buildStream(data []byte) (*Buffer, *script) {
	b, s := new(Buffer), new(script)
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
		brk := ctl&0x80 != 0
		if ctl&0x40 != 0 {
			ev := DataEvent{
				Addr:  addr,
				Base:  addr - d%64,
				Disp:  int32(d % 64),
				Store: ctl&0x20 != 0,
				Size:  1 << (ctl % 4),
			}
			if brk {
				ev.Addr += 1 + d%64
			}
			s.ds = append(s.ds, ev)
			s.order = append(s.order, true)
			b.OnData(ev)
			continue
		}
		ev := FetchEvent{Addr: addr, Prev: prev, Kind: ControlKind(ctl % 4), First: len(s.fs) == 0, Shift: 3}
		if ctl&0x20 != 0 {
			ev.Run, ev.Shift = uint8(d>>16), uint8(2+(d>>24)%7)
		}
		if brk && d>>30 == 0 {
			ev.Prev = d
		}
		ev.Base, ev.Disp = ev.Prev, int32(ev.Addr-ev.Prev)
		if brk {
			switch d >> 30 {
			case 1:
				ev.Base = d
			case 2:
				ev.Disp = int32(d)
			case 3:
				ev.Kind = KindSeq + 1 + ControlKind(d%3)
			}
		}
		prev = ev.LastAddr()
		addr = prev
		s.fs = append(s.fs, ev)
		s.order = append(s.order, false)
		b.OnFetch(ev)
	}
	return b, s
}

// FuzzVarintColumnRoundTrip drives adversarial address streams through the
// full encode→spill→load→decode cycle, asserting byte-exact event recovery
// and a byte-stable re-serialization, with each event keeping or breaking
// the format's predictions as its control byte selects (buildStream). The
// spill must equal the reference encoder's (encode_ref_test.go), and so
// must the spill of the same stream
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
	// Runs of up to MaxRun packets at shifts 2 to 8, between small
	// alternating-sign moves and 64 KiB forward strides.
	runs := make([]byte, 5*96)
	for i := 0; i+5 <= len(runs); i += 5 {
		runs[i] = 0x20 | byte(3*(i/5%3))
		binary.LittleEndian.PutUint32(runs[i+1:], uint32(i*0x01030507))
	}
	f.Add(runs, []byte(nil))
	// Sequential packets, every other event breaking a prediction in turn:
	// prev, base, disp, kind, and a data addr.
	brk := make([]byte, 5*80)
	for i := 0; i+5 <= len(brk); i += 10 {
		brk[i] = 0x84 // ctl%6 == 0: a sequential packet, KindSeq
		if i%50 == 40 {
			brk[i] = 0xc0
		}
		binary.LittleEndian.PutUint32(brk[i+1:], uint32(i/10)<<30|0x1234)
	}
	f.Add(brk, []byte(nil))
	f.Add(brk, []byte{2, 70})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		b, s := buildStream(data)
		wantF, wantD := s.fs, s.ds
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

// FuzzTraceReader throws arbitrary bytes at the reader: it must never
// panic, and anything it accepts must re-serialize to a semantically
// identical buffer (decode is total: a parsed file replays consistently or
// errors, never silently diverges). A file of an earlier format, the
// committed WMTRACE2 and WMTRACE3 fixtures among the seeds, must be
// rejected whatever follows its magic.
func FuzzTraceReader(f *testing.F) {
	seed := func(events []byte) []byte {
		b, _ := buildStream(events)
		var spill bytes.Buffer
		b.WriteTo(&spill)
		return spill.Bytes()
	}
	r := rand.New(rand.NewSource(7))
	ev := make([]byte, 5*200)
	r.Read(ev)
	f.Add(seed(ev))
	f.Add(seed(make([]byte, 5*64)))
	f.Add([]byte(FileMagic))
	mut := seed(ev)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut)
	// A spill of fetch runs: every fetch event a run of packets.
	runs := slices.Clone(ev)
	for i := 0; i+5 <= len(runs); i += 5 {
		runs[i] = runs[i]&^0x40 | 0x20
	}
	f.Add(seed(runs))
	for _, old := range []string{"golden_v2.wmtrace", "golden_v3.wmtrace"} {
		raw, err := os.ReadFile(filepath.Join("testdata", old))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBuffer(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, old := range []string{"WMTRACE1", "WMTRACE2", "WMTRACE3"} {
			if bytes.HasPrefix(data, []byte(old)) {
				t.Fatalf("a %s file loads", old)
			}
		}
		var log1 eventLog
		if err := b.ReplayAll(context.Background(), []SinkPair{{Fetch: &log1, Data: &log1}}); err != nil {
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
		if err := b2.ReplayAll(context.Background(), []SinkPair{{Fetch: &log2, Data: &log2}}); err != nil {
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

// TestWMTRACE2EveryByteFlipDetected (named for the format it was written
// for; it checks the current one) corrupts a spill one byte at a time —
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
	b, _ := buildStream(ev)
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
