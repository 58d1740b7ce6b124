package trace

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
)

// fillRandom records a random interleaving into b one event at a time and
// returns the expected per-stream event lists. n spans several chunks so
// chunk-boundary bookkeeping is exercised.
func fillRandom(r *rand.Rand, n int, b *Buffer) ([]FetchEvent, []DataEvent) {
	var wantF []FetchEvent
	var wantD []DataEvent
	for i := 0; i < n; i++ {
		if r.Intn(3) > 0 {
			ev := randFetch(r)
			wantF = append(wantF, ev)
			b.OnFetch(ev)
		} else {
			ev := randData(r)
			wantD = append(wantD, ev)
			b.OnData(ev)
		}
	}
	return wantF, wantD
}

func TestBufferCaptureAndReplay(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var b Buffer
	wantF, wantD := fillRandom(r, 2*chunkLen+123, &b)
	if b.NumFetches() != len(wantF) || b.NumDatas() != len(wantD) || b.Len() != len(wantF)+len(wantD) {
		t.Fatalf("counts: %d/%d/%d want %d/%d", b.NumFetches(), b.NumDatas(), b.Len(), len(wantF), len(wantD))
	}
	gotF, gotD := b.Fetches(), b.Datas()
	for i, want := range wantF {
		if gotF[i] != want {
			t.Fatalf("Fetches()[%d] = %+v, want %+v", i, gotF[i], want)
		}
	}
	for i, want := range wantD {
		if gotD[i] != want {
			t.Fatalf("Datas()[%d] = %+v, want %+v", i, gotD[i], want)
		}
	}
	var rec eventLog
	if err := b.ReplayAll(context.Background(), []SinkPair{{Fetch: &rec, Data: &rec}}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Fetches) != len(wantF) || len(rec.Datas) != len(wantD) {
		t.Fatalf("replay counts: %d/%d", len(rec.Fetches), len(rec.Datas))
	}
	for i := range wantF {
		if rec.Fetches[i] != wantF[i] {
			t.Fatalf("replayed fetch %d: %+v != %+v", i, rec.Fetches[i], wantF[i])
		}
	}
	for i := range wantD {
		if rec.Datas[i] != wantD[i] {
			t.Fatalf("replayed data %d: %+v != %+v", i, rec.Datas[i], wantD[i])
		}
	}
}

func TestBufferReplayCancellation(t *testing.T) {
	var b Buffer
	for i := 0; i < chunkLen+1; i++ {
		b.OnFetch(FetchEvent{Addr: uint32(i) * 8})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var rec eventLog
	if err := b.ReplayAll(ctx, []SinkPair{{Fetch: &rec}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay: err = %v", err)
	}
	if len(rec.Fetches) != 0 {
		t.Fatalf("cancelled replay delivered %d events", len(rec.Fetches))
	}
}

// TestBufferFileRoundTrip spills a buffer to WMTRACE3 and reloads it,
// demanding the reloaded buffer serialize byte-identically — which pins the
// contents of both streams.
func TestBufferFileRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var b Buffer
	fillRandom(r, chunkLen+999, &b)

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
	if loaded.NumFetches() != b.NumFetches() || loaded.NumDatas() != b.NumDatas() {
		t.Fatalf("reloaded counts: %d/%d want %d/%d",
			loaded.NumFetches(), loaded.NumDatas(), b.NumFetches(), b.NumDatas())
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spill.Bytes(), again.Bytes()) {
		t.Fatal("reloaded buffer serializes differently")
	}
}
