package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTeeFanout(t *testing.T) {
	var a, b eventLog
	tee := FetchTee(&a, &b)
	tee.OnFetch(FetchEvent{Addr: 0x100})
	if len(a.Fetches) != 1 || len(b.Fetches) != 1 {
		t.Fatal("tee did not fan out")
	}
	dt := DataTee(&a, &b)
	dt.OnData(DataEvent{Addr: 0x200})
	if len(a.Datas) != 1 || len(b.Datas) != 1 {
		t.Fatal("data tee did not fan out")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[ControlKind]string{
		KindSeq: "seq", KindBranch: "branch", KindLink: "link", KindIndirect: "indirect",
	} {
		if k.String() != want {
			t.Errorf("%d: %q", k, k.String())
		}
	}
	for c, want := range map[FlowCase]string{
		IntraSeq: "intra-seq", IntraNonSeq: "intra-nonseq",
		InterSeq: "inter-seq", InterNonSeq: "inter-nonseq",
	} {
		if c.String() != want {
			t.Errorf("%d: %q", c, c.String())
		}
	}
}

func randFetch(r *rand.Rand) FetchEvent {
	return FetchEvent{
		Addr:  r.Uint32() &^ 7,
		Prev:  r.Uint32() &^ 7,
		Kind:  ControlKind(r.Intn(4)),
		Base:  r.Uint32(),
		Disp:  int32(r.Uint32()),
		First: r.Intn(10) == 0,
	}
}

func randData(r *rand.Rand) DataEvent {
	sizes := []uint8{1, 2, 4, 8}
	return DataEvent{
		Addr: r.Uint32(), Base: r.Uint32(), Disp: int32(r.Uint32()),
		Store: r.Intn(2) == 0, Size: sizes[r.Intn(4)],
	}
}

// TestFileRoundTrip spills a random interleaving of events through
// Buffer.WriteTo and reads it back with ReadBuffer, demanding exact equality
// of both streams.
func TestFileRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	var b Buffer
	var wantF []FetchEvent
	var wantD []DataEvent
	for i := 0; i < 5000; i++ {
		if r.Intn(2) == 0 {
			ev := randFetch(r)
			wantF = append(wantF, ev)
			b.OnFetch(ev)
		} else {
			ev := randData(r)
			wantD = append(wantD, ev)
			b.OnData(ev)
		}
	}
	var spill bytes.Buffer
	if _, err := b.WriteTo(&spill); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBuffer(&spill)
	if err != nil {
		t.Fatal(err)
	}
	gotF, gotD := got.Fetches(), got.Datas()
	if len(gotF) != len(wantF) || len(gotD) != len(wantD) {
		t.Fatalf("counts: %d/%d vs %d/%d", len(gotF), len(gotD), len(wantF), len(wantD))
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
}

func TestFileErrors(t *testing.T) {
	if _, err := ReadBuffer(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// The fixed-record format of earlier versions is no longer readable
	// (TestGoldenWMTRACE2 covers the column format before this one).
	legacy := "WMTRACE1D\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x04"
	if _, err := ReadBuffer(strings.NewReader(legacy)); err == nil {
		t.Fatal("WMTRACE1 magic accepted")
	}
	// Truncated record.
	var b Buffer
	b.OnData(DataEvent{Addr: 1, Size: 4})
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadBuffer(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
	// Well-formed records in the wrong order: the data stream's chunk
	// before the fetch stream's.
	b.OnFetch(FetchEvent{Addr: 8})
	buf.Reset()
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	spill := buf.Bytes()
	var recs [][]byte // the records after the magic, trailer last
	for off := len(FileMagic); off < len(spill); {
		n, k := binary.Uvarint(spill[off+1:])
		end := off + 1 + k + int(n) + 4
		recs = append(recs, spill[off:end])
		off = end
	}
	if len(recs) != 3 || recs[0][0] != recFetch || recs[1][0] != recData {
		t.Fatalf("spill of one fetch and one data event has records %d", len(recs))
	}
	swapped := slices.Concat([]byte(FileMagic), recs[1], recs[0], recs[2])
	if _, err := ReadBuffer(bytes.NewReader(swapped)); err == nil {
		t.Fatal("data chunk before fetch chunk accepted")
	}
}

// TestClassifyProperty: classification is total and consistent with its
// definition for random events.
func TestClassifyProperty(t *testing.T) {
	f := func(addr, prev uint32, kindRaw uint8) bool {
		ev := FetchEvent{Addr: addr, Prev: prev, Kind: ControlKind(kindRaw % 4)}
		c := Classify(ev, 32)
		sameLine := addr/32 == prev/32
		seq := ev.Kind == KindSeq
		switch c {
		case IntraSeq:
			return sameLine && seq
		case IntraNonSeq:
			return sameLine && !seq
		case InterSeq:
			return !sameLine && seq
		case InterNonSeq:
			return !sameLine && !seq
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}
