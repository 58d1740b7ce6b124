package baseline

import (
	"math/rand"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/trace"
)

func TestFilterCacheHitsAndPenalty(t *testing.T) {
	f := NewFilterCacheD(cache.Config{Sets: 8, Ways: 1, LineBytes: 32}, geo)
	onData(f, dataEv(0x1000, false)) // L0 miss, L1 miss: 1 extra cycle
	onData(f, dataEv(0x1004, false)) // L0 hit: free
	onData(f, dataEv(0x1008, true))  // L0 hit store
	s := f.Stats
	if s.ExtraCycles != 1 {
		t.Fatalf("extra cycles = %d", s.ExtraCycles)
	}
	if s.BufHits != 2 {
		t.Fatalf("L0 hits = %d", s.BufHits)
	}
	// L0 hits touch no L1 arrays.
	if s.TagReads != 2 || s.WayReads != 2 {
		t.Fatalf("L1 activity: %+v", *s)
	}
}

func TestFilterCacheDirtyWriteThrough(t *testing.T) {
	f := NewFilterCacheD(cache.Config{Sets: 1, Ways: 1, LineBytes: 32}, geo)
	onData(f, dataEv(0x1000, true)) // L0 fill + dirty
	ww := f.Stats.WayWrites
	onData(f, dataEv(0x2000, false)) // displaces dirty L0 line -> L1 way write
	if f.Stats.WayWrites != ww+1+1 { // victim write + new L1... (miss refill)
		t.Fatalf("way writes %d -> %d", ww, f.Stats.WayWrites)
	}
}

func TestTwoPhaseSingleWay(t *testing.T) {
	p := NewTwoPhaseD(geo)
	onData(p, dataEv(0x1000, false)) // miss
	onData(p, dataEv(0x1004, false)) // hit: 2 tags, 1 way
	s := p.Stats
	if s.TagReads != 4 || s.WayReads != 1 {
		t.Fatalf("%+v", *s)
	}
	if s.ExtraCycles != 2 {
		t.Fatalf("every access must pay the phase penalty: %d", s.ExtraCycles)
	}
}

func TestWayPredictMRU(t *testing.T) {
	w := NewWayPredictI(geo)
	ev := trace.FetchEvent{Addr: 0x1000, First: true}
	onFetch(w, ev) // cold miss: mispredict + fill
	onFetch(w, trace.FetchEvent{Addr: 0x1000, Prev: 0x1000, Kind: trace.KindBranch})
	s := w.Stats
	if s.MABHits != 1 { // second access predicted correctly
		t.Fatalf("prediction hits = %d", s.MABHits)
	}
	// Conflicting line in the same set flips the MRU way.
	onFetch(w, trace.FetchEvent{Addr: 0x1000 + 1<<14, Prev: 0x1000, Kind: trace.KindBranch})
	if s.ExtraCycles != 2 { // cold + conflict mispredictions
		t.Fatalf("extra cycles = %d", s.ExtraCycles)
	}
	// Predicted accesses read exactly one tag and one way.
	onFetch(w, trace.FetchEvent{Addr: 0x1000 + 1<<14, Prev: 0x1000, Kind: trace.KindBranch})
	perAccess := float64(s.TagReads) / float64(s.Accesses)
	if perAccess >= 2 {
		t.Fatalf("tags/access = %f", perAccess)
	}
}

func TestMaLinksSequentialAndBranch(t *testing.T) {
	m := NewMaLinksI(geo)
	// Two passes over three consecutive lines with a back branch.
	run := func() {
		prev := uint32(0)
		first := !m.havePrev
		for p := 0; p < 12; p++ { // 12 packets = 3 lines
			addr := uint32(0x4000 + 8*p)
			kind := trace.KindSeq
			var base uint32
			var disp int32
			if p == 0 && !first {
				kind, base, disp = trace.KindBranch, prev+4, int32(0x4000)-int32(prev+4)
			} else {
				base, disp = prev, 8
			}
			onFetch(m, trace.FetchEvent{Addr: addr, Prev: prev, Kind: kind,
				Base: base, Disp: disp, First: first && p == 0})
			prev = addr
		}
	}
	run()
	firstPassHits := m.Stats.MABHits
	if firstPassHits != 0 {
		t.Fatalf("links hit before being installed: %d", firstPassHits)
	}
	run()
	// Second pass: the two line crossings follow the sequential links
	// installed in pass one; the back branch installs its link now.
	if m.Stats.MABHits != 2 {
		t.Fatalf("pass-2 link hits = %d, want 2", m.Stats.MABHits)
	}
	run()
	// Third pass: both crossings and the branch link hit.
	if m.Stats.MABHits != 2+3 {
		t.Fatalf("pass-3 link hits = %d, want 5", m.Stats.MABHits)
	}
	if m.Stats.Violations != 0 {
		t.Fatalf("violations: %d", m.Stats.Violations)
	}
}

// TestWideAssociativityWays: in a fully associative 256-way cache, every
// way number past 127 must survive the way-prediction table and the
// MA-links link storage, so a prediction or link into any way still hits.
func TestWideAssociativityWays(t *testing.T) {
	wide := cache.Config{Sets: 1, Ways: 256, LineBytes: 32}
	addr := func(line, pkt int) uint32 { return uint32(line*32 + pkt*8) }
	branch := func(from, to uint32) trace.FetchEvent {
		return trace.FetchEvent{Addr: to, Prev: from, Kind: trace.KindBranch,
			Base: from + 4, Disp: int32(to) - int32(from+4)}
	}

	// Way prediction: line i misses into way i, so its re-fetch must be
	// predicted.
	w := NewWayPredictI(wide)
	prev := uint32(0)
	for i := 0; i < wide.Ways; i++ {
		a := addr(i, 0)
		onFetch(w, branch(prev, a))
		onFetch(w, branch(a, a))
		prev = a
	}
	if got := w.Stats.MABHits; got != uint64(wide.Ways) {
		t.Errorf("way prediction hit %d re-fetches, want %d", got, wide.Ways)
	}

	// MA links: the second straight-line walk over every line follows the
	// sequential link the first walk installed at each line crossing.
	m := NewMaLinksI(wide)
	last := addr(wide.Ways-1, 3)
	walk := func() {
		if m.havePrev {
			onFetch(m, branch(last, 0))
		} else {
			onFetch(m, trace.FetchEvent{First: true})
		}
		for a := uint32(8); a <= last; a += 8 {
			onFetch(m, trace.FetchEvent{Addr: a, Prev: a - 8, Kind: trace.KindSeq, Base: a - 8, Disp: 8})
		}
	}
	walk()
	walk()
	if got := m.Stats.MABHits; got != uint64(wide.Ways-1) {
		t.Errorf("second walk followed %d sequential links, want %d", got, wide.Ways-1)
	}
	// Branch links into ways 199 and 255: the first round installs both,
	// the next two follow them.
	hits := m.Stats.MABHits
	hi := addr(199, 0)
	for r := 0; r < 3; r++ {
		onFetch(m, branch(last, hi))
		onFetch(m, branch(hi, last))
	}
	if got := m.Stats.MABHits - hits; got != 4 {
		t.Errorf("branch links hit %d times, want 4", got)
	}
	if m.Stats.Violations != 0 {
		t.Errorf("violations: %d", m.Stats.Violations)
	}
}

func TestMaLinksInvalidationOnEvict(t *testing.T) {
	small := cache.Config{Sets: 2, Ways: 1, LineBytes: 32}
	m := NewMaLinksI(small)
	// Build a sequential link 0x0->0x20, then evict 0x0 via a conflicting
	// line; the link must not fire afterwards.
	onFetch(m, trace.FetchEvent{Addr: 0x00, First: true})
	onFetch(m, trace.FetchEvent{Addr: 0x08, Prev: 0x00, Kind: trace.KindSeq, Base: 0x00, Disp: 8})
	onFetch(m, trace.FetchEvent{Addr: 0x20, Prev: 0x18, Kind: trace.KindSeq, Base: 0x18, Disp: 8})
	onFetch(m, trace.FetchEvent{Addr: 0x40, Prev: 0x20, Kind: trace.KindBranch, Base: 0x20, Disp: 0x20}) // evicts 0x00 (set 0, 1-way)
	hits := m.Stats.MABHits
	onFetch(m, trace.FetchEvent{Addr: 0x00, Prev: 0x40, Kind: trace.KindBranch, Base: 0x40, Disp: -0x40})
	onFetch(m, trace.FetchEvent{Addr: 0x20, Prev: 0x00, Kind: trace.KindSeq, Base: 0x18, Disp: 8})
	_ = hits // the re-install path must not crash and stays consistent
	if m.Stats.Violations != 0 {
		t.Fatalf("violations: %d", m.Stats.Violations)
	}
}

func TestLineBufferD(t *testing.T) {
	b := NewLineBufferD(geo)
	onData(b, dataEv(0x1000, false)) // buffer miss + cache miss
	onData(b, dataEv(0x1004, false)) // buffer hit
	onData(b, dataEv(0x1008, true))  // buffer hit store
	s := b.Stats
	if s.BufHits != 2 || s.ExtraCycles != 1 {
		t.Fatalf("%+v", *s)
	}
	if s.Accesses != 3 {
		t.Fatalf("accesses = %d", s.Accesses)
	}
	ww := s.WayWrites
	onData(b, dataEv(0x2000, false)) // dirty buffer flushes
	if s.WayWrites != ww+1+1 {
		t.Fatalf("flush: %d -> %d", ww, s.WayWrites)
	}
}

func TestLineBufferEvictCoherence(t *testing.T) {
	small := cache.Config{Sets: 2, Ways: 1, LineBytes: 32}
	b := NewLineBufferD(small)
	onData(b, dataEv(0x00, false))
	onData(b, dataEv(0x40, false)) // evicts 0x00 and its buffered copy
	hits := b.Stats.BufHits
	onData(b, dataEv(0x04, false))
	if b.Stats.BufHits != hits {
		t.Fatal("buffer served an evicted line")
	}
}

// TestExtensionsAgreeFunctionally: every extension sees the same underlying
// miss stream (modulo the filter cache, which changes L1 traffic by
// design).
func TestExtensionsAgreeFunctionally(t *testing.T) {
	o := NewOriginalD(geo)
	tp := NewTwoPhaseD(geo)
	lb := NewLineBufferD(geo)
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 50000; i++ {
		addr := uint32(0x100000 + r.Intn(1<<15)&^3)
		ev := dataEv(addr, r.Intn(4) == 0)
		onData(o, ev)
		onData(tp, ev)
		onData(lb, ev)
	}
	if o.Stats.Hits != tp.Stats.Hits || o.Stats.Misses != tp.Stats.Misses {
		t.Fatalf("two-phase diverged: %d/%d vs %d/%d",
			tp.Stats.Hits, tp.Stats.Misses, o.Stats.Hits, o.Stats.Misses)
	}
	if o.Stats.Hits != lb.Stats.Hits || o.Stats.Misses != lb.Stats.Misses {
		t.Fatalf("line buffer diverged: %d/%d vs %d/%d",
			lb.Stats.Hits, lb.Stats.Misses, o.Stats.Hits, o.Stats.Misses)
	}
	// Two-phase must use strictly fewer way reads than the original.
	if tp.Stats.WayReads >= o.Stats.WayReads {
		t.Fatal("two-phase saved no way reads")
	}
}
