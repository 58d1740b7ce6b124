package core

import (
	"fmt"
	"math/rand"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// waysCase is one randomized ways group: geometries that share sets and
// line size, and evict-invalidate lanes.
type waysCase struct {
	geos []cache.Config
	cfgs []Config
}

func (wc waysCase) String() string { return fmt.Sprintf("%+v %v", wc.geos, wc.cfgs) }

// widest returns the geometry of the group's largest way count.
func (wc waysCase) widest() cache.Config {
	g := wc.geos[0]
	for _, x := range wc.geos {
		g.Ways = max(g.Ways, x.Ways)
	}
	return g
}

// randomWaysCase draws a small, conflict-heavy (sets, line), a list of 1-8
// way counts from 1 to 12, duplicates and non-powers of two included, and
// lanes as randomLaneCase draws them, all PolicyEvictInvalidate: half the
// draws one group differing only in Ns, the others mostly lanes alone.
func randomWaysCase(r *rand.Rand) waysCase {
	lc := randomLaneCase(r)
	for k := range lc.cfgs {
		lc.cfgs[k].Consistency = PolicyEvictInvalidate
	}
	geos := make([]cache.Config, 1+r.Intn(8))
	for i := range geos {
		geos[i] = lc.geo
		geos[i].Ways = 1 + r.Intn(12)
	}
	return waysCase{geos, lc.cfgs}
}

// runDWays feeds evs to a ways group in the given blocks and to one
// NewDLanes per geometry, and checks every level's counters against its
// controller's after every block. It returns the group.
func runDWays(t *testing.T, what string, wc waysCase, evs []trace.DataEvent, cuts [][2]int) *DWays {
	t.Helper()
	g := NewDWays(wc.geos, wc.cfgs)
	refs := make([]*DController, len(wc.geos))
	for i, geo := range wc.geos {
		refs[i] = NewDLanes(geo, wc.cfgs)
	}
	for _, cut := range cuts {
		blk := evs[cut[0]:cut[1]]
		g.OnDataBatch(blk)
		for i, ref := range refs {
			ref.OnDataBatch(blk)
			checkLevel(t, fmt.Sprintf("%s after event %d", what, cut[1]), g.Levels[i], ref.Baseline, ref.Lanes)
		}
	}
	if !g.Exact() {
		t.Fatalf("%s: a stream of named lines is not exact", what)
	}
	return g
}

// runIWays is runDWays for fetches.
func runIWays(t *testing.T, what string, wc waysCase, evs []trace.FetchEvent, cuts [][2]int) *IWays {
	t.Helper()
	g := NewIWays(wc.geos, wc.cfgs)
	refs := make([]*IController, len(wc.geos))
	for i, geo := range wc.geos {
		refs[i] = NewILanes(geo, wc.cfgs)
	}
	for _, cut := range cuts {
		blk := evs[cut[0]:cut[1]]
		g.OnFetchBatch(blk)
		for i, ref := range refs {
			ref.OnFetchBatch(blk)
			checkLevel(t, fmt.Sprintf("%s after fetch %d", what, cut[1]), g.Levels[i], ref.Baseline, ref.Lanes)
		}
	}
	if !g.Exact() {
		t.Fatalf("%s: a stream of named lines is not exact", what)
	}
	return g
}

// checkLevel compares one level of a ways group with its one-geometry
// controller.
func checkLevel(t *testing.T, what string, lv WayLevel, base *stats.Counters, lanes []Lane) {
	t.Helper()
	if *lv.Baseline != *base {
		t.Fatalf("%s: %d ways: baseline counters\n got  %+v\n want %+v", what, lv.Geometry.Ways, *lv.Baseline, *base)
	}
	for k := range lanes {
		if *lv.Lanes[k] != *lanes[k].Stats {
			t.Fatalf("%s: %d ways: lane %d (%v) counters\n got  %+v\n want %+v",
				what, lv.Geometry.Ways, k, lanes[k].Config(), *lv.Lanes[k], *lanes[k].Stats)
		}
	}
}

// TestWaysMatchReferenceRandom is the ways-group contract on random
// streams: every level of NewDWays (NewIWays) leaves its baseline and lane
// counters equal to those of a NewDLanes (NewILanes) of its geometry fed
// the same blocks, over random (sets, line), way lists and evict-invalidate
// lane lists, with stores, bypasses, first and indirect fetches and blocks
// of every length. The seeds must exercise what only a ways group does: a
// line leaving a level while dirty in it, a MAB hit at one level that is a
// miss at a smaller one, and way counts that are not powers of two.
func TestWaysMatchReferenceRandom(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 24
	}
	var writeBacks, floorMisses, odd int
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		wc := randomWaysCase(r)
		const n = 6000
		wide := wc.widest()
		d := runDWays(t, fmt.Sprintf("seed %d D %v", seed, wc), wc, randomDataStream(r, wide, n), blocks(r, n))
		runIWays(t, fmt.Sprintf("seed %d I %v", seed, wc), wc, randomFetchStream(r, wide, n), blocks(r, n))
		for _, lv := range d.Levels {
			if lv.Baseline.WriteBacks > 0 && lv.Geometry.Ways < wide.Ways {
				writeBacks++
			}
			if lv.Geometry.Ways&(lv.Geometry.Ways-1) != 0 {
				odd++
			}
			for _, wider := range d.Levels {
				for k, s := range lv.Lanes {
					if wider.Geometry.Ways > lv.Geometry.Ways && s.MABHits < wider.Lanes[k].MABHits {
						floorMisses++
					}
				}
			}
		}
	}
	t.Logf("%d narrower levels with write-backs, %d lanes losing MAB hits to a wider level, %d odd levels",
		writeBacks, floorMisses, odd)
	if writeBacks == 0 || floorMisses == 0 || odd == 0 {
		t.Fatal("the seeds no longer exercise every part of the ways group")
	}
}

// TestWaysMatchReferencePaperCaptures runs the same contract over the
// seven benchmarks' captured streams, at three (sets, line) with way lists
// of two to four values, and lanes in every clearing mode, alone and in
// groups of two and three.
func TestWaysMatchReferencePaperCaptures(t *testing.T) {
	groups := []struct {
		sets, line int
		ways       []int
	}{{512, 32, []int{1, 2, 3, 4}}, {64, 16, []int{8, 1, 4, 2}}, {16, 64, []int{5, 1}}}
	cfgs := []Config{
		DefaultD,
		{TagEntries: 2, SetEntries: 16},
		{TagEntries: 2, SetEntries: 32},
		{TagEntries: 1, SetEntries: 4, Clear: ClearAll},
		{TagEntries: 1, SetEntries: 8, Clear: ClearAll},
		{TagEntries: 2, SetEntries: 8, Clear: ClearLRURow},
		{TagEntries: 4, SetEntries: 2, Clear: ClearNone},
	}
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:2]
	}
	for _, w := range ws {
		buf := &trace.Buffer{}
		if _, err := workloads.Run(w, trace.NewCapture(buf)); err != nil {
			t.Fatal(err)
		}
		fetches, datas := buf.Fetches(), buf.Datas()
		for _, g := range groups {
			wc := waysCase{cfgs: cfgs}
			for _, ways := range g.ways {
				wc.geos = append(wc.geos, cache.Config{Sets: g.sets, Ways: ways, LineBytes: g.line})
			}
			r := rand.New(rand.NewSource(1))
			runDWays(t, fmt.Sprintf("%s D %v", w.Name, wc.geos), wc, datas, bigBlocks(r, len(datas)))
			runIWays(t, fmt.Sprintf("%s I %v", w.Name, wc.geos), wc, fetches, bigBlocks(r, len(fetches)))
		}
	}
}

// TestWaysExact checks Exact: an access outside the line its base and
// displacement name, or a case-1 fetch outside the previous fetch's line,
// makes the group inexact, and an out-of-range one does not.
func TestWaysExact(t *testing.T) {
	geos := []cache.Config{{Sets: 64, Ways: 1, LineBytes: 16}, {Sets: 64, Ways: 2, LineBytes: 16}}
	cfgs := []Config{DefaultD}
	d := NewDWays(geos, cfgs)
	onData(d, trace.DataEvent{Addr: 0x1000_0000, Base: 0x2000, Disp: 1 << 20, Size: 4})
	if !d.Exact() {
		t.Fatal("an out-of-range access made the group inexact")
	}
	onData(d, trace.DataEvent{Addr: 0x1010, Base: 0x1000, Disp: 4, Size: 4})
	if d.Exact() {
		t.Fatal("an access outside its named line left the group exact")
	}
	ic := NewIWays(geos, cfgs)
	ic.OnFetchBatch([]trace.FetchEvent{{Addr: 0x100, First: true}, {Addr: 0x108, Prev: 0x100, Base: 0x100, Disp: 8}})
	if !ic.Exact() {
		t.Fatal("a sequential fetch in the previous fetch's line made the group inexact")
	}
	onFetch(ic, trace.FetchEvent{Addr: 0x208, Prev: 0x200, Base: 0x200, Disp: 8})
	if ic.Exact() {
		t.Fatal("a case-1 fetch outside the previous fetch's line left the group exact")
	}
}

// FuzzWaysMatchReference turns arbitrary bytes into a ways group — (sets,
// line), a way list and evict-invalidate lanes — and a data and a fetch
// stream, and checks that every level of the group equals the
// one-geometry controller of its geometry. Some probed data accesses
// leave the line they name; the group must then report itself inexact,
// and its data levels are not compared.
func FuzzWaysMatchReference(f *testing.F) {
	f.Add([]byte("\x03\x01\x02\x04\x02\x03\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc"))
	f.Add([]byte("\x00\x00\x00\x01\x00\x00\xff\xfe\x81\x80\x7f\x01\x00\x10\x20\x40\x80\x00"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 6 {
			return
		}
		geo := cache.Config{Sets: 1 << (b[0] % 6), LineBytes: 16 << (b[1] % 3)}
		wc := waysCase{}
		for i := range 1 + int(b[2]%4) {
			g := geo
			g.Ways = 1 + int(b[3]>>(2*i)&3) + int(b[4]>>(2*i)&1)*4
			wc.geos = append(wc.geos, g)
		}
		for i := range 1 + int(b[5]%4) {
			x := b[5] >> (2 + i)
			wc.cfgs = append(wc.cfgs, Config{TagEntries: 1 + int(x%2), SetEntries: []int{1, 2, 3, 4, 8}[int(b[i%len(b)])%5],
				Clear: ClearMode(x % 4)})
		}
		b = b[6:]
		var datas []trace.DataEvent
		var fetches []trace.FetchEvent
		inexact, pc, a := false, uint32(0x10000), newAdder(geo)
		for len(b) >= 3 {
			c := b[:3]
			b = b[3:]
			base := 0x100000 + uint32(c[0]&63)*24
			disp := int32(int8(c[1])) * 4
			if c[2]&0x80 != 0 {
				disp <<= 16 // far outside the adder's range
			}
			ev := trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp, Store: c[2]&1 != 0, Size: 4}
			if c[2]&0x40 != 0 && c[1]&7 == 0 && a.inRange(disp) {
				ev.Addr += 4096
				inexact = true
			}
			datas = append(datas, ev)
			fev := trace.FetchEvent{Prev: pc, Kind: trace.KindSeq, Base: pc, Disp: 8, Addr: pc + 8}
			switch c[2] >> 1 & 7 {
			case 0:
				fev.First, fev.Addr = true, 0x10000+uint32(c[0])*8
			case 1, 2:
				fev.Kind, fev.Disp = trace.KindBranch, int32(int8(c[1]))*8
				fev.Addr = pc + uint32(fev.Disp)
			case 3:
				fev.Kind, fev.Addr = trace.KindLink, 0x10000+uint32(c[1]&15)*64
				fev.Base, fev.Disp = fev.Addr, 0
			case 4:
				fev.Kind, fev.Addr = trace.KindIndirect, 0x10000+uint32(c[0])*8
				fev.Base, fev.Disp = fev.Addr, 0
			}
			fetches = append(fetches, fev)
			pc = fev.Addr
		}
		if len(datas) == 0 {
			return
		}
		d := NewDWays(wc.geos, wc.cfgs)
		ic := NewIWays(wc.geos, wc.cfgs)
		half := len(datas) / 2
		for _, cut := range [][2]int{{0, half}, {half, len(datas)}} {
			d.OnDataBatch(datas[cut[0]:cut[1]])
			ic.OnFetchBatch(fetches[cut[0]:cut[1]])
		}
		if d.Exact() == inexact {
			t.Fatalf("data group exact %v, stream has accesses outside their lines: %v", d.Exact(), inexact)
		}
		if !ic.Exact() {
			t.Fatal("a fetch stream of named lines is not exact")
		}
		for i, geo := range wc.geos {
			if !inexact {
				ref := NewDLanes(geo, wc.cfgs)
				ref.OnDataBatch(datas)
				checkLevel(t, fmt.Sprintf("%v D", wc), d.Levels[i], ref.Baseline, ref.Lanes)
			}
			iref := NewILanes(geo, wc.cfgs)
			iref.OnFetchBatch(fetches)
			checkLevel(t, fmt.Sprintf("%v I", wc), ic.Levels[i], iref.Baseline, iref.Lanes)
		}
	})
}
