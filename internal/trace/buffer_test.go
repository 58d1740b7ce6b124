package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
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

// TestBufferRefusesMalformedFetch feeds OnFetch an event the format cannot
// hold after two good ones: the buffer must refuse to spill or replay, and
// name the first such event, not store it mangled.
func TestBufferRefusesMalformedFetch(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   FetchEvent
		want string // error substring; empty for an event the format holds
	}{
		{"kind 5", FetchEvent{Addr: 0x10010, Kind: 5, Shift: 3}, "fetch event 2 at 0x10010: kind 5 is not a ControlKind"},
		{"shift 32", FetchEvent{Addr: 0x10010, Kind: KindBranch, Shift: 32}, "fetch event 2 at 0x10010: shift 32 is not below 32"},
		{"kind 4 shift 255", FetchEvent{Addr: 0x10010, Kind: 4, Shift: 255}, "kind 4 is not a ControlKind"},
		{"indirect shift 31", FetchEvent{Addr: 0x10010, Kind: KindIndirect, Shift: 31}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b Buffer
			evs := []FetchEvent{
				{Addr: 0x10000, First: true, Shift: 3},
				{Addr: 0x10008, Prev: 0x10000, Base: 0x10000, Disp: 8, Shift: 3},
				tc.ev,
				{Addr: 0x10020, Kind: 7, Shift: 3},
			}
			for _, ev := range evs[:3] {
				b.OnFetch(ev)
			}
			_, werr := b.WriteTo(io.Discard)
			var rec eventLog
			rerr := b.ReplayAll(context.Background(), []SinkPair{{Fetch: &rec}})
			if tc.want == "" {
				if werr != nil || rerr != nil {
					t.Fatalf("WriteTo: %v, ReplayAll: %v", werr, rerr)
				}
				if len(rec.Fetches) != 3 || rec.Fetches[2] != tc.ev {
					t.Fatalf("replayed %+v, want %+v last", rec.Fetches, tc.ev)
				}
				return
			}
			b.OnFetch(evs[3]) // a later malformed event does not displace the first
			_, werr = b.WriteTo(io.Discard)
			rerr = b.ReplayAll(context.Background(), []SinkPair{{Fetch: &rec}})
			jerr := Join(&b, new(Buffer)).ReplayAll(context.Background(), []SinkPair{{Fetch: &rec}})
			for _, err := range []error{werr, rerr, jerr} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("err = %v, want it to contain %q", err, tc.want)
				}
			}
			if len(rec.Fetches) != 0 {
				t.Errorf("refused buffer delivered %d events", len(rec.Fetches))
			}
		})
	}
}

// TestBufferFileRoundTrip spills a buffer to WMTRACE4 and reloads it,
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
