package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenStream regenerates the deterministic event mix that produced
// testdata/golden_v2.wmtrace and testdata/golden_v3.wmtrace: mostly
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

// TestGoldenWMTRACE3 pins the spill format's bytes: the committed fixture
// must load with the generating stream's counts, decode to exactly that
// stream, and re-serialize bit-identically — so any change to the column
// encoding, the predictions, the record framing or the trailer shows up
// here.
func TestGoldenWMTRACE3(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v3.wmtrace"))
	if err != nil {
		t.Fatal(err)
	}
	wantF, wantD, order := goldenStream()

	b, err := ReadBuffer(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.NumFetches() != len(wantF) || b.NumDatas() != len(wantD) || b.Len() != len(order) {
		t.Fatalf("fixture loads %d/%d/%d events, want %d/%d/%d",
			b.NumFetches(), b.NumDatas(), b.Len(), len(wantF), len(wantD), len(order))
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
	fi, di := 0, 0
	for _, isData := range order {
		if isData {
			fresh.OnData(wantD[di])
			di++
		} else {
			fresh.OnFetch(wantF[fi])
			fi++
		}
	}
	again.Reset()
	if _, err := fresh.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("a fresh capture of the golden stream spills differently from the fixture")
	}

	// The golden mix is dominated by sequential packets: the spill must be
	// well under half the fixed-record size of the same events.
	if v1 := fixedRecordBytes(len(wantF), len(wantD)); len(raw)*2 >= v1 {
		t.Fatalf("WMTRACE3 spill %dB not ≤ 0.5× fixed records %dB", len(raw), v1)
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
