package core

import (
	"fmt"
	"math/rand"
	"testing"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

func TestLineBufferComboServesSameLine(t *testing.T) {
	d := NewDLineBufferController(geo, DefaultD)
	ev := func(addr uint32, store bool) trace.DataEvent {
		return trace.DataEvent{Addr: addr, Base: addr, Disp: 0, Store: store, Size: 4}
	}
	onData(d, ev(0x1000, false)) // buffer+MAB miss, cache miss
	tags, ways := d.Stats.TagReads, d.Stats.WayReads
	onData(d, ev(0x1004, false)) // buffer hit: nothing else moves
	onData(d, ev(0x1008, true))  // buffer hit store
	if d.Stats.TagReads != tags || d.Stats.WayReads != ways {
		t.Fatalf("buffer hits touched arrays: %+v", *d.Stats)
	}
	if d.Stats.BufHits != 2 {
		t.Fatalf("buffer hits = %d", d.Stats.BufHits)
	}
	// Crossing to another line goes through the MAB path.
	onData(d, ev(0x1020, false))
	if d.Stats.MABLookups != 2 { // first access + this one
		t.Fatalf("MAB lookups = %d", d.Stats.MABLookups)
	}
}

func TestLineBufferComboDirtyFlush(t *testing.T) {
	d := NewDLineBufferController(geo, DefaultD)
	ev := func(addr uint32, store bool) trace.DataEvent {
		return trace.DataEvent{Addr: addr, Base: addr, Disp: 0, Store: store, Size: 4}
	}
	onData(d, ev(0x1000, true))
	onData(d, ev(0x1004, true)) // buffered dirty
	ww := d.Stats.WayWrites
	onData(d, ev(0x2000, false))     // flush on line change
	if d.Stats.WayWrites != ww+1+1 { // flush + refill write of the new line
		t.Fatalf("way writes %d -> %d", ww, d.Stats.WayWrites)
	}
}

// TestLineBufferComboInvariant: same functional behaviour as the plain
// controller, buffer coherent with evictions, MAB invariant intact.
func TestLineBufferComboInvariant(t *testing.T) {
	small := cache.Config{Sets: 16, Ways: 2, LineBytes: 32}
	combo := NewDLineBufferController(small, Config{TagEntries: 2, SetEntries: 4})
	plain := NewDController(small, Config{TagEntries: 2, SetEntries: 4})
	r := rand.New(rand.NewSource(17))
	bases := make([]uint32, 6)
	for i := range bases {
		bases[i] = uint32(r.Intn(1<<18) * 4)
	}
	for i := 0; i < 100000; i++ {
		base := bases[r.Intn(len(bases))]
		disp := int32(r.Intn(1 << 10))
		ev := trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp,
			Store: r.Intn(3) == 0, Size: 4}
		onData(combo, ev)
		onData(plain, ev)
		if i%2000 == 0 {
			if bad := combo.MAB.CheckInvariant(combo.Cache); bad != 0 {
				t.Fatalf("MAB invariant violated: %d", bad)
			}
		}
	}
	if combo.Stats.Violations != 0 {
		t.Fatalf("violations: %d", combo.Stats.Violations)
	}
	if combo.Stats.Hits != plain.Stats.Hits || combo.Stats.Misses != plain.Stats.Misses {
		t.Fatalf("functional divergence: %d/%d vs %d/%d",
			combo.Stats.Hits, combo.Stats.Misses, plain.Stats.Hits, plain.Stats.Misses)
	}
	// The buffer must absorb work: fewer way reads than the plain MAB.
	if combo.Stats.WayReads >= plain.Stats.WayReads {
		t.Fatal("line buffer absorbed nothing")
	}
	if combo.Stats.BufHits == 0 {
		t.Fatal("no buffer hits")
	}
}

// TestLineBufferHitsAreCacheHits feeds random streams on small caches to
// both hosts of a line buffer, baseline.LineBufferD and the combination,
// and to a conventional baseline.OriginalD. A buffer may only serve a line
// its cache holds, in the way the cache holds it: every buffer hit must be
// a hit of the conventional cache, in the way that cache holds the line,
// and after every access each host's cache must hold the same line in
// every frame, with the same hits, misses and write-backs, as the
// conventional one. A stale buffer entry, or a hit that touches or
// dirties another way, breaks one of these within a few accesses.
func TestLineBufferHitsAreCacheHits(t *testing.T) {
	for seed := range 200 {
		r := rand.New(rand.NewSource(int64(seed)))
		g := cache.Config{Sets: 1 << r.Intn(3), Ways: 1 << r.Intn(3), LineBytes: 16}
		cfg := Config{TagEntries: 1 + r.Intn(2), SetEntries: 1 << r.Intn(3),
			Consistency: Policy(r.Intn(2)), Clear: ClearMode(r.Intn(4))}
		what := fmt.Sprintf("seed %d %v %v", seed, g, cfg)
		orig := baseline.NewOriginalD(g)
		lb := baseline.NewLineBufferD(g)
		combo := NewDLineBufferController(g, cfg)
		hosts := []struct {
			name  string
			sink  trace.DataSink
			c     *cache.Cache
			stats *stats.Counters
		}{{"line buffer", lb, lb.Cache, lb.Stats}, {"MAB + line buffer", combo, combo.Cache, combo.Stats}}

		// Lines from a pool twice the cache's size, so lines are evicted
		// while the buffer may hold them; half the accesses stay in the
		// previous line, and a few bypass the MAB.
		lines := 2 * g.Sets * g.Ways
		var prev trace.DataEvent
		for i := range 3000 {
			ev := prev
			if i == 0 || r.Intn(2) == 0 {
				base := uint32(0x1000 + 16*r.Intn(lines))
				disp := int32(4 * r.Intn(4))
				if r.Intn(10) == 0 {
					base, disp = base-1<<16, 1<<16+disp
				}
				ev = trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp, Size: 4}
			} else {
				ev.Addr = ev.Addr&^15 | uint32(4*r.Intn(4))
				ev.Disp = int32(ev.Addr - ev.Base)
			}
			ev.Store = r.Intn(3) == 0
			prev = ev

			way, hit := orig.Cache.Lookup(ev.Addr)
			onData(orig, ev)
			for _, h := range hosts {
				bufHits := h.stats.BufHits
				hw, _ := h.c.Lookup(ev.Addr)
				onData(h.sink, ev)
				if h.stats.BufHits != bufHits && (!hit || hw != way) {
					t.Fatalf("%s access %d: %s buffer hit on %#x, conventional cache hit %v in way %d, host way %d",
						what, i, h.name, ev.Addr, hit, way, hw)
				}
				if got, want := outcomeOf(h.stats), outcomeOf(orig.Stats); got != want {
					t.Fatalf("%s access %d: %s %+v, conventional %+v", what, i, h.name, got, want)
				}
				for set := range uint32(g.Sets) {
					for w := range g.Ways {
						gt, gv := h.c.TagAt(set, w)
						wt, wv := orig.Cache.TagAt(set, w)
						if gv != wv || gv && gt != wt {
							t.Fatalf("%s access %d: %s set %d way %d holds %#x/%v, conventional %#x/%v",
								what, i, h.name, set, w, gt, gv, wt, wv)
						}
					}
				}
			}
		}
		if lb.Stats.BufHits == 0 || combo.Stats.BufHits == 0 {
			t.Fatalf("%s: no buffer hits", what)
		}
	}
}
