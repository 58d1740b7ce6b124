package core

import (
	"math/rand"
	"testing"

	"waymemo/internal/cache"
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
