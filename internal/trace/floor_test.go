package trace_test

import (
	"bytes"
	"context"
	"testing"

	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// TestWMTRACE2CompressionFloor (named for the format it was written for; it
// checks the current one) pins the size win where it is architecturally
// guaranteed. On a sequential-packet-dominated stream and on the real
// captures of the paper's seven workloads and the RV32 DCT port, the spill
// must be at most half the fixed-record bytes; each real capture must also
// spill at no more than 3.5 bytes per event. Both count a fetch run as
// the packets it holds, one fixed record each, as the formats before runs
// stored them. A spill holds nothing but the in-memory columns and the
// record framing, so it is never more than the encoded footprint plus
// 4 KiB.
func TestWMTRACE2CompressionFloor(t *testing.T) {
	check := func(name string, b *trace.Buffer, maxPerEvent float64) {
		t.Helper()
		var spill bytes.Buffer
		if _, err := b.WriteTo(&spill); err != nil {
			t.Fatal(err)
		}
		packets := 0
		for _, ev := range b.Fetches() {
			packets += ev.NumPackets()
		}
		fixed := trace.FixedRecordBytes(packets, b.NumDatas())
		perEvent := float64(spill.Len()) / float64(packets+b.NumDatas())
		t.Logf("%s: %d events (%d runs), %.2f bytes/event, %.2f× below fixed records",
			name, packets+b.NumDatas(), b.NumFetches(), perEvent, float64(fixed)/float64(spill.Len()))
		if 2*spill.Len() > fixed {
			t.Errorf("%s: spill %dB vs fixed records %dB — compression < 2x", name, spill.Len(), fixed)
		}
		if perEvent > maxPerEvent {
			t.Errorf("%s: %.2f bytes/event, over %.2f", name, perEvent, maxPerEvent)
		}
		if int64(spill.Len()) > b.EncodedBytes()+4096 {
			t.Errorf("%s: spill %dB far exceeds in-memory encoded footprint %dB",
				name, spill.Len(), b.EncodedBytes())
		}
	}

	var b trace.Buffer
	addr := uint32(0x1000)
	for i := 0; i < 3*trace.ChunkLen/2; i++ {
		next := addr + 8
		if i%200 == 199 {
			next = addr - 1024 // loop back-edge
		}
		b.OnFetch(trace.FetchEvent{Addr: next, Prev: addr, Base: addr, Disp: int32(next - addr), Kind: trace.KindSeq})
		if i%5 == 0 {
			b.OnData(trace.DataEvent{Addr: 0x8000 + uint32(i%4096)*4, Base: 0x8000, Disp: int32(i % 4096), Size: 4})
		}
		addr = next
	}
	check("sequential", &b, 19)

	ws := workloads.All()
	rv, err := workloads.ByName(workloads.RV32Prefix + "DCT")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(ws, rv) {
		buf := new(trace.Buffer)
		if _, err := workloads.RunPacketContext(context.Background(), w, trace.NewCapture(buf), 0); err != nil {
			t.Fatal(err)
		}
		check(w.Name, buf, 3.5)
	}
}
