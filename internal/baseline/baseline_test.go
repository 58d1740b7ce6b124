package baseline

import (
	"math/rand"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/trace"
)

var geo = cache.FRV32K

func dataEv(addr uint32, store bool) trace.DataEvent {
	return trace.DataEvent{Addr: addr, Base: addr, Disp: 0, Store: store, Size: 4}
}

// onData and onFetch deliver one event to s as a block of one.
func onData(s trace.DataSink, ev trace.DataEvent)    { s.OnDataBatch([]trace.DataEvent{ev}) }
func onFetch(s trace.FetchSink, ev trace.FetchEvent) { s.OnFetchBatch([]trace.FetchEvent{ev}) }

func TestOriginalDAccounting(t *testing.T) {
	d := NewOriginalD(geo)
	onData(d, dataEv(0x1000, false)) // load miss
	s := d.Stats
	if s.TagReads != 2 || s.WayReads != 2 || s.WayWrites != 1 || s.Misses != 1 {
		t.Fatalf("load miss: %+v", *s)
	}
	onData(d, dataEv(0x1004, false)) // load hit, same line
	if s.TagReads != 4 || s.WayReads != 4 || s.Hits != 1 {
		t.Fatalf("load hit: %+v", *s)
	}
	onData(d, dataEv(0x1008, true)) // store hit: tags + single way write
	if s.TagReads != 6 || s.WayReads != 4 || s.WayWrites != 2 {
		t.Fatalf("store hit: %+v", *s)
	}
	// On a hit-dominated stream with stores, ways/access sits below 2
	// thanks to the write-back buffer (paper §4).
	for i := 0; i < 20; i++ {
		onData(d, dataEv(0x1000+uint32(4*(i%8)), i%2 == 0))
	}
	if w := s.WaysPerAccess(); w >= 2 {
		t.Fatalf("ways/access = %.2f, must stay below 2 with the write buffer", w)
	}
}

func TestOriginalDWriteBack(t *testing.T) {
	small := cache.Config{Sets: 2, Ways: 1, LineBytes: 16}
	d := NewOriginalD(small)
	onData(d, dataEv(0x00, true))
	onData(d, dataEv(0x20, false)) // same set, evicts dirty line
	if d.Stats.WriteBacks != 1 {
		t.Fatalf("write backs = %d", d.Stats.WriteBacks)
	}
}

func TestOriginalIAccounting(t *testing.T) {
	i := NewOriginalI(geo)
	onFetch(i, trace.FetchEvent{Addr: 0x1000, First: true})
	onFetch(i, trace.FetchEvent{Addr: 0x1008, Prev: 0x1000, Kind: trace.KindSeq})
	s := i.Stats
	// Original I-cache: every fetch reads all tags and ways.
	if s.TagReads != 4 || s.WayReads != 4 {
		t.Fatalf("%+v", *s)
	}
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hit/miss: %+v", *s)
	}
}

func TestApproach4ISkipsIntraLineOnly(t *testing.T) {
	a := NewApproach4I(geo)
	// Packets 0..3 in one 32B line, then line crossing.
	prev := uint32(0)
	for p := 0; p < 5; p++ {
		addr := uint32(0x2000 + 8*p)
		onFetch(a, trace.FetchEvent{Addr: addr, Prev: prev, Kind: trace.KindSeq, Base: prev, Disp: 8, First: p == 0})
		prev = addr
	}
	s := a.Stats
	if s.Case1Skips != 3 {
		t.Fatalf("skips = %d", s.Case1Skips)
	}
	// Fetch 0 (cold) and fetch 4 (line crossing) were full accesses.
	if s.TagReads != 4 {
		t.Fatalf("tag reads = %d", s.TagReads)
	}
	// A taken branch within the line is NOT case 1 under [4].
	onFetch(a, trace.FetchEvent{Addr: 0x2020, Prev: 0x2020, Kind: trace.KindBranch, Base: 0x2024, Disp: -4})
	if s.Case1Skips != 3 {
		t.Fatalf("intra-line branch was skipped")
	}
}

func TestSetBufferHitsSameSet(t *testing.T) {
	b := NewSetBufferD(geo)
	// First access misses buffer and cache; loads the buffer.
	onData(b, dataEv(0x4000, false))
	// Same line again: buffer hit, no cache arrays.
	tagsBefore, waysBefore := b.Stats.TagReads, b.Stats.WayReads
	onData(b, dataEv(0x4004, false))
	if b.Stats.SetBufHits != 1 {
		t.Fatalf("buffer hits = %d", b.Stats.SetBufHits)
	}
	if b.Stats.TagReads != tagsBefore || b.Stats.WayReads != waysBefore {
		t.Fatal("buffer hit touched cache arrays")
	}
	// Other way of the same set: miss in buffer (not resident), full access,
	// then both lines buffered.
	other := uint32(0x4000 + 1<<14) // same set, different tag
	onData(b, dataEv(other, false))
	onData(b, dataEv(0x4000, false)) // now both buffered: hit
	if b.Stats.SetBufHits != 2 {
		t.Fatalf("buffer hits = %d", b.Stats.SetBufHits)
	}
}

func TestSetBufferMovesWithSet(t *testing.T) {
	b := NewSetBufferD(geo)
	onData(b, dataEv(0x4000, true)) // store: buffered dirty after hit below
	onData(b, dataEv(0x4004, true)) // buffer hit (store was latched), dirty
	if b.Stats.SetBufHits != 1 {
		t.Fatalf("setup: %+v", *b.Stats)
	}
	wayWrites := b.Stats.WayWrites
	onData(b, dataEv(0x4020, false))        // different set: dirty line flushes
	if b.Stats.WayWrites != wayWrites+1+1 { // flush + refill of new line
		t.Fatalf("flush accounting: %d -> %d", wayWrites, b.Stats.WayWrites)
	}
}

func TestSetBufferEvictionCoherence(t *testing.T) {
	small := cache.Config{Sets: 2, Ways: 1, LineBytes: 16}
	b := NewSetBufferD(small)
	onData(b, dataEv(0x00, false))
	onData(b, dataEv(0x20, false)) // same set, evicts 0x00 (1-way)
	// 0x00 must not hit the buffer now.
	hits := b.Stats.SetBufHits
	onData(b, dataEv(0x00, false))
	if b.Stats.SetBufHits != hits {
		t.Fatal("buffer served an evicted line")
	}
}

// TestSetBufferHitsAreCacheHits feeds short streams to SetBufferD and
// OriginalD: the buffer may only serve lines the cache holds, so hits and
// misses must agree, with the given buffer hits.
func TestSetBufferHitsAreCacheHits(t *testing.T) {
	small := cache.Config{Sets: 4, Ways: 2, LineBytes: 16}
	// at is the address of (tag, set) in small.
	at := func(tag, set uint32) uint32 { return (tag*4 + set) * 16 }
	type access struct {
		addr  uint32
		store bool
	}
	for _, c := range []struct {
		name    string
		geo     cache.Config
		stream  []access
		bufHits uint64
	}{
		// Re-latching set 2, whose way 1 is still invalid, must drop the
		// tag way 1 held for set 1.
		{"relatch clears invalid ways", small,
			[]access{{at(1, 1), false}, {at(2, 1), false}, {at(3, 2), false}, {at(2, 2), false}}, 0},
		{"store latches only its line", small,
			[]access{{at(1, 1), false}, {at(2, 1), true}, {at(1, 1), false}, {at(2, 1), false}}, 1},
		{"loads latch the whole set", small,
			[]access{{at(1, 1), false}, {at(2, 1), false}, {at(3, 2), true}, {at(1, 1), false}, {at(2, 1), true}}, 1},
		{"evicted line leaves the buffer", cache.Config{Sets: 2, Ways: 1, LineBytes: 16},
			[]access{{0x00, false}, {0x20, false}, {0x00, false}}, 0},
	} {
		sb, o := NewSetBufferD(c.geo), NewOriginalD(c.geo)
		for _, a := range c.stream {
			onData(sb, dataEv(a.addr, a.store))
			onData(o, dataEv(a.addr, a.store))
		}
		if s := sb.Stats; s.Hits != o.Stats.Hits || s.Misses != o.Stats.Misses || s.SetBufHits != c.bufHits {
			t.Errorf("%s: set buffer %d hits / %d misses / %d buffer hits, want %d / %d / %d",
				c.name, s.Hits, s.Misses, s.SetBufHits, o.Stats.Hits, o.Stats.Misses, c.bufHits)
		}
	}
}

// TestBaselinesAgreeOnHitMiss runs all D-cache techniques over one random
// stream: the functional hit/miss outcome must be identical (all use the
// same cache geometry and LRU policy; only array activity differs).
func TestBaselinesAgreeOnHitMiss(t *testing.T) {
	o := NewOriginalD(geo)
	sb := NewSetBufferD(geo)
	r := rand.New(rand.NewSource(3))
	bases := []uint32{0x100000, 0x104000, 0x17F000}
	for i := 0; i < 100000; i++ {
		base := bases[r.Intn(len(bases))]
		addr := base + uint32(r.Intn(1<<13))&^3
		ev := dataEv(addr, r.Intn(4) == 0)
		onData(o, ev)
		onData(sb, ev)
	}
	if o.Stats.Hits != sb.Stats.Hits || o.Stats.Misses != sb.Stats.Misses {
		t.Fatalf("divergence: original %d/%d, set buffer %d/%d",
			o.Stats.Hits, o.Stats.Misses, sb.Stats.Hits, sb.Stats.Misses)
	}
	if sb.Stats.SetBufHits == 0 {
		t.Fatal("set buffer never hit")
	}
	// The set buffer must reduce array activity.
	if sb.Stats.TagReads >= o.Stats.TagReads {
		t.Fatal("set buffer saved no tag reads")
	}
}
