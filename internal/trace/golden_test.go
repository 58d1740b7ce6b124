package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenStream regenerates the deterministic event mix that produced
// testdata/golden_v2.wmtrace, testdata/golden_v3.wmtrace and, its fetches
// joined into runs (goldenRuns), testdata/golden_v4.wmtrace: mostly
// sequential fetch packets with periodic branches, links and indirect
// jumps, and a data access every fifth event. It must never change — the
// fixture bytes pin the file format.
func goldenStream() (fs []FetchEvent, ds []DataEvent, order []bool) {
	x := uint32(0x9e3779b9)
	rnd := func() uint32 { x ^= x << 13; x ^= x >> 17; x ^= x << 5; return x }
	addr, prev := uint32(0x1000), uint32(0)
	sizes := []uint8{1, 2, 4, 8}
	for i := 0; i < 1024; i++ {
		if i%5 == 3 {
			base := rnd()
			disp := int32(rnd()%4096) - 2048
			ds = append(ds, DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp, Store: i%2 == 0, Size: sizes[i%4]})
			order = append(order, true)
			continue
		}
		ev := FetchEvent{Prev: prev, First: i == 0}
		switch {
		case i%31 == 7:
			ev.Kind = KindIndirect
			ev.Addr = (0xfffffff8 - addr) &^ 7
		case i%13 == 4:
			ev.Kind = KindBranch
			ev.Base = addr
			ev.Disp = int32(rnd()%8192) - 4096
			ev.Addr = (ev.Base + uint32(ev.Disp)) &^ 7
		case i%17 == 11:
			ev.Kind = KindLink
			ev.Base = rnd() &^ 7
			ev.Addr = ev.Base
		default:
			ev.Kind = KindSeq
			ev.Base = addr
			ev.Disp = 8
			ev.Addr = addr + 8
		}
		prev, addr = ev.Addr, ev.Addr
		fs = append(fs, ev)
		order = append(order, false)
	}
	return fs, ds, order
}

// goldenRuns is goldenStream's fetch stream as the simulator stages it at
// its 8-byte packets: each fall-through packet joins the run before it,
// up to MaxRun of them.
func goldenRuns(fs []FetchEvent) []FetchEvent {
	var runs []FetchEvent
	for _, ev := range fs {
		ev.Shift = 3
		if n := len(runs); n > 0 {
			r := &runs[n-1]
			if last := r.LastAddr(); ev == (FetchEvent{Addr: last + 8, Prev: last, Base: last, Disp: 8, Shift: 3}) &&
				r.Run < MaxRun {
				r.Run++
				continue
			}
		}
		runs = append(runs, ev)
	}
	return runs
}

// TestGoldenWMTRACE4 pins the spill format's bytes: the committed fixture
// must load with the generating stream's counts, decode to exactly that
// stream, and re-serialize bit-identically — so any change to the column
// encoding, the predictions, the record framing or the trailer shows up
// here. The fixture holds goldenStream with its fetches joined into runs.
func TestGoldenWMTRACE4(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v4.wmtrace"))
	if err != nil {
		t.Fatal(err)
	}
	packets, wantD, _ := goldenStream()
	wantF := goldenRuns(packets)
	if 2*len(wantF) > len(packets) {
		t.Fatalf("the golden stream's %d packets join into %d runs", len(packets), len(wantF))
	}

	b, err := ReadBuffer(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.NumFetches() != len(wantF) || b.NumDatas() != len(wantD) {
		t.Fatalf("fixture loads %d/%d events, want %d/%d", b.NumFetches(), b.NumDatas(), len(wantF), len(wantD))
	}
	gotF, gotD := b.Fetches(), b.Datas()
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
	if _, err := b.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("WriteTo does not reproduce the golden fixture bit-identically")
	}
	// A fresh capture of the stream spills to the same bytes.
	var fresh Buffer
	for _, ev := range wantF {
		fresh.OnFetch(ev)
	}
	for _, ev := range wantD {
		fresh.OnData(ev)
	}
	again.Reset()
	if _, err := fresh.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("a fresh capture of the golden stream spills differently from the fixture")
	}

	// The golden mix is dominated by sequential packets: the spill must be
	// well under half the fixed-record size of the same packets.
	if v1 := fixedRecordBytes(len(packets), len(wantD)); len(raw)*2 >= v1 {
		t.Fatalf("WMTRACE4 spill %dB not ≤ 0.5× fixed records %dB", len(raw), v1)
	}
}

// TestGoldenWMTRACE3: a spill of the golden stream in the WMTRACE3 format
// of the version before this one, which stored one fetch event per packet,
// is rejected, so a spill directory that version left behind costs one
// re-capture per trace, never a misread.
func TestGoldenWMTRACE3(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v3.wmtrace"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("WMTRACE3")) {
		t.Fatalf("fixture starts %q, not the WMTRACE3 magic", raw[:8])
	}
	if _, err := ReadBuffer(bytes.NewReader(raw)); err == nil {
		t.Fatal("a WMTRACE3 spill loads")
	}
}

// TestGoldenWMTRACE2: a spill of the golden stream in the WMTRACE2 format of
// earlier versions, which stored every field and the interleaving of the
// two streams, is rejected, so a spill directory that an earlier version
// left behind costs one re-capture per trace, never a misread.
func TestGoldenWMTRACE2(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v2.wmtrace"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("WMTRACE2")) {
		t.Fatalf("fixture starts %q, not the WMTRACE2 magic", raw[:8])
	}
	if _, err := ReadBuffer(bytes.NewReader(raw)); err == nil {
		t.Fatal("a WMTRACE2 spill loads")
	}
}
