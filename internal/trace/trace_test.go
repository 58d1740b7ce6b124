package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestTeeFanout: a tee hands every sink each event as a one-event block,
// in order, and allocates nothing per event.
func TestTeeFanout(t *testing.T) {
	var a, b eventLog
	tee := FetchTee(&a, &b)
	tee.OnFetch(FetchEvent{Addr: 0x100})
	tee.OnFetchBatch([]FetchEvent{{Addr: 0x108}, {Addr: 0x110}})
	dt := DataTee(&a, &b)
	dt.OnData(DataEvent{Addr: 0x200})
	for _, l := range []*eventLog{&a, &b} {
		if len(l.Fetches) != 3 || l.Fetches[2].Addr != 0x110 || !slices.Equal(l.fetchBlocks, []int{1, 1, 1}) {
			t.Fatalf("fetch tee delivered %+v in blocks %v", l.Fetches, l.fetchBlocks)
		}
		if len(l.Datas) != 1 || l.Datas[0].Addr != 0x200 || !slices.Equal(l.dataBlocks, []int{1}) {
			t.Fatalf("data tee delivered %+v in blocks %v", l.Datas, l.dataBlocks)
		}
	}
	nop := FetchTee(FetchFunc(func(FetchEvent) {}))
	if n := testing.AllocsPerRun(100, func() { nop.OnFetch(FetchEvent{Addr: 8}) }); n != 0 {
		t.Fatalf("tee allocates %v times per event", n)
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

// TestFetchEventLayout pins the fetch event at 20 bytes: a decoded replay
// block and a staging block hold thousands of them.
func TestFetchEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(FetchEvent{}); n != 20 {
		t.Fatalf("FetchEvent is %d bytes, want 20", n)
	}
}

// TestPacketsExpandsRun: a run walks as its head, Run cleared, and then one
// KindSeq event per fall-through packet, each based on the packet before
// it with the packet size as displacement; a lone packet walks as itself,
// and a walk stopped early stops.
func TestPacketsExpandsRun(t *testing.T) {
	head := FetchEvent{Addr: 0x1010, Prev: 0x2000, Base: 0x2004, Disp: -0xff4, Kind: KindBranch, Run: 3, Shift: 4}
	want := []FetchEvent{
		{Addr: 0x1010, Prev: 0x2000, Base: 0x2004, Disp: -0xff4, Kind: KindBranch, Shift: 4},
		{Addr: 0x1020, Prev: 0x1010, Base: 0x1010, Disp: 16, Shift: 4},
		{Addr: 0x1030, Prev: 0x1020, Base: 0x1020, Disp: 16, Shift: 4},
		{Addr: 0x1040, Prev: 0x1030, Base: 0x1030, Disp: 16, Shift: 4},
	}
	if got := slices.Collect(head.Packets()); !slices.Equal(got, want) {
		t.Fatalf("Packets() = %+v, want %+v", got, want)
	}
	if head.NumPackets() != len(want) || head.LastAddr() != want[len(want)-1].Addr {
		t.Fatalf("NumPackets %d, LastAddr %#x", head.NumPackets(), head.LastAddr())
	}
	lone := want[0]
	if got := slices.Collect(lone.Packets()); !slices.Equal(got, want[:1]) {
		t.Fatalf("a lone packet walks as %+v", got)
	}
	n := 0
	for range head.Packets() {
		if n++; n == 2 {
			break
		}
	}
}
