package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// refD is the reference way-memoized D-cache controller: one MAB over a
// cache of its own, driven through the stepwise cache calls, exactly as
// DController worked before it shared one cache between MAB lanes.
type refD struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters
}

func newRefD(geo cache.Config, mcfg Config) *refD {
	c := cache.New(geo)
	m := New(mcfg, geo)
	if mcfg.Consistency == PolicyEvictInvalidate {
		c.OnEvict = m.OnEviction
	}
	return &refD{Cache: c, MAB: m, Stats: &stats.Counters{}}
}

func (d *refD) access(ev *trace.DataEvent) {
	s := d.Stats
	s.Accesses++
	if ev.Store {
		s.Stores++
	} else {
		s.Loads++
	}
	if !d.MAB.InRange(ev.Disp) {
		s.MABBypasses++
		d.MAB.OnBypass()
		d.fullAccess(ev)
		return
	}
	s.MABLookups++
	if res := d.MAB.Probe(ev.Base, ev.Disp); res.Hit {
		if d.Cache.Present(ev.Addr, res.Way) {
			s.MABHits++
			s.Hits++
			d.Cache.Touch(ev.Addr, res.Way)
			if ev.Store {
				s.WayWrites++
				d.Cache.MarkDirty(ev.Addr, res.Way)
			} else {
				s.WayReads++
			}
			return
		}
		s.Violations++
		d.MAB.Invalidate(ev.Base, ev.Disp)
	}
	s.MABMisses++
	way := d.fullAccess(ev)
	d.MAB.Update(ev.Base, ev.Disp, way)
	s.MABUpdates++
}

func (d *refD) fullAccess(ev *trace.DataEvent) int {
	s, c := d.Stats, d.Cache
	ways := uint64(c.Config().Ways)
	s.TagReads += ways
	way, hit := c.Lookup(ev.Addr)
	if hit {
		s.Hits++
		if !ev.Store {
			s.WayReads += ways
		}
	} else {
		s.Misses++
		if !ev.Store {
			s.WayReads += ways
		}
		var evc cache.Eviction
		way, evc = c.Fill(ev.Addr)
		s.Refills++
		s.WayWrites++
		if evc.Dirty {
			s.WriteBacks++
		}
	}
	c.Touch(ev.Addr, way)
	if ev.Store {
		s.WayWrites++
		c.MarkDirty(ev.Addr, way)
	}
	return way
}

// refI is the reference way-memoized I-cache controller, one MAB over a
// cache of its own (see refD).
type refI struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters

	prevWay  int
	havePrev bool
}

func newRefI(geo cache.Config, mcfg Config) *refI {
	c := cache.New(geo)
	m := New(mcfg, geo)
	if mcfg.Consistency == PolicyEvictInvalidate {
		c.OnEvict = m.OnEviction
	}
	return &refI{Cache: c, MAB: m, Stats: &stats.Counters{}}
}

func (ic *refI) fetch(ev *trace.FetchEvent) {
	s := ic.Stats
	s.Accesses++
	s.Loads++
	if !ev.First {
		flow := trace.Classify(*ev, uint32(ic.Cache.Config().LineBytes))
		s.Flow[flow]++
		if flow == trace.IntraSeq && ic.havePrev {
			s.Case1Skips++
			s.Hits++
			s.WayReads++
			ic.Cache.Touch(ev.Addr, ic.prevWay)
			return
		}
	}
	if ev.First || ev.Kind == trace.KindIndirect || !ic.MAB.InRange(ev.Disp) {
		s.MABBypasses++
		ic.MAB.OnBypass()
		ic.prevWay = ic.fullFetch(ev)
		ic.havePrev = true
		return
	}
	s.MABLookups++
	if res := ic.MAB.Probe(ev.Base, ev.Disp); res.Hit {
		if ic.Cache.Present(ev.Addr, res.Way) {
			s.MABHits++
			s.Hits++
			s.WayReads++
			ic.Cache.Touch(ev.Addr, res.Way)
			ic.prevWay = res.Way
			ic.havePrev = true
			return
		}
		s.Violations++
		ic.MAB.Invalidate(ev.Base, ev.Disp)
	}
	s.MABMisses++
	way := ic.fullFetch(ev)
	ic.MAB.Update(ev.Base, ev.Disp, way)
	s.MABUpdates++
	ic.prevWay = way
	ic.havePrev = true
}

func (ic *refI) fullFetch(ev *trace.FetchEvent) int {
	s, c := ic.Stats, ic.Cache
	ways := uint64(c.Config().Ways)
	s.TagReads += ways
	s.WayReads += ways
	way, hit := c.Lookup(ev.Addr)
	if hit {
		s.Hits++
	} else {
		s.Misses++
		var evc cache.Eviction
		way, evc = c.Fill(ev.Addr)
		s.Refills++
		s.WayWrites++
		if evc.Dirty {
			s.WriteBacks++
		}
	}
	c.Touch(ev.Addr, way)
	return way
}

// laneCase is one randomized controller set-up: a geometry and its lanes.
type laneCase struct {
	geo  cache.Config
	cfgs []Config
}

func (lc laneCase) String() string { return fmt.Sprintf("%+v %v", lc.geo, lc.cfgs) }

// randomLaneCase draws a small, conflict-heavy geometry and 1-8 lanes.
// Half the draws mix policies and clearing modes, so most lanes stand
// alone; the other half draw every lane from one (Nt, policy, clearing
// mode), so they share one group and differ only in Ns, duplicates
// allowed. PolicyPaper lanes often get as many tag entries as the cache
// has ways, the sizing that admits violations.
func randomLaneCase(r *rand.Rand) laneCase {
	geo := cache.Config{
		Sets:      1 << r.Intn(7),
		Ways:      1 << r.Intn(4),
		LineBytes: 16 << r.Intn(3),
	}
	draw := func() Config {
		c := Config{
			TagEntries:  1 + r.Intn(4),
			Consistency: Policy(r.Intn(2)),
			Clear:       ClearMode(r.Intn(4)),
		}
		if c.Consistency == PolicyPaper && geo.Ways <= 4 && r.Intn(2) == 0 {
			c.TagEntries = geo.Ways
		}
		return c
	}
	grouped := r.Intn(2) == 0
	one := draw()
	cfgs := make([]Config, 1+r.Intn(8))
	for k := range cfgs {
		c := one
		if !grouped {
			c = draw()
		}
		c.SetEntries = []int{1, 2, 3, 4, 8, 16}[r.Intn(6)]
		cfgs[k] = c
	}
	return laneCase{geo, cfgs}
}

// randomDataStream draws accesses from a few bases over a window a few
// times the cache's size, with displacements that are mostly in the
// adder's range and sometimes far outside it (bypasses), a third stores.
func randomDataStream(r *rand.Rand, geo cache.Config, n int) []trace.DataEvent {
	window := uint32(4 * geo.SizeBytes())
	bases := make([]uint32, 1+r.Intn(8))
	for i := range bases {
		bases[i] = 0x100000 + uint32(r.Intn(int(window)))&^3
	}
	evs := make([]trace.DataEvent, n)
	for i := range evs {
		base := bases[r.Intn(len(bases))]
		var disp int32
		switch x := r.Intn(20); {
		case x < 15:
			disp = int32(r.Intn(256)-128) * 4
		case x < 19:
			disp = int32(r.Intn(1<<13) - 1<<12)
		default:
			disp = int32(r.Intn(1<<22) - 1<<21)
		}
		evs[i] = trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp, Store: r.Intn(3) == 0, Size: 4}
	}
	return evs
}

// randomFetchStream walks a program counter over a window a few times the
// cache's size: mostly sequential 8-byte packets, plus near and far taken
// branches, returns to a few link targets, indirect jumps and the odd
// reset. Each fetch's Prev is the previous fetch, as in a real trace.
func randomFetchStream(r *rand.Rand, geo cache.Config, n int) []trace.FetchEvent {
	const org = 0x10000
	window := 4 * geo.SizeBytes()
	links := make([]uint32, 1+r.Intn(4))
	for i := range links {
		links[i] = org + uint32(r.Intn(window))&^7
	}
	evs := make([]trace.FetchEvent, n)
	pc := uint32(org)
	for i := range evs {
		ev := trace.FetchEvent{Prev: pc, Kind: trace.KindSeq, Base: pc, Disp: 8}
		switch x := r.Intn(100); {
		case i == 0 || x == 0:
			ev.First = true
			ev.Addr = org + uint32(r.Intn(window))&^7
		case x < 70:
			ev.Addr = pc + 8
		case x < 85:
			far := 1 << 8
			if r.Intn(4) == 0 {
				far = 1 << 20
			}
			ev.Kind = trace.KindBranch
			ev.Addr = uint32(int32(pc)+int32(r.Intn(2*far)-far)) &^ 7
			ev.Disp = int32(ev.Addr - pc)
		case x < 93:
			ev.Kind = trace.KindLink
			ev.Addr = links[r.Intn(len(links))]
			ev.Base, ev.Disp = ev.Addr, 0
		default:
			ev.Kind = trace.KindIndirect
			ev.Addr = org + uint32(r.Intn(window))&^7
			ev.Base, ev.Disp = ev.Addr, 0
		}
		evs[i] = ev
		pc = ev.Addr
	}
	return evs
}

// blocks cuts n events into randomly sized blocks, so the controllers'
// counters are read back after blocks of every length, single events
// included.
func blocks(r *rand.Rand, n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; {
		hi := min(n, lo+1+r.Intn(600))
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// checkLanes compares the N-lane controller's baseline and lanes against
// their references, and the shared cache against every reference cache.
func checkLanes(t *testing.T, what string, base, got *stats.Counters, wantBase *stats.Counters,
	lanes []Lane, refStats []*stats.Counters, c *cache.Cache, refCaches []*cache.Cache) {
	t.Helper()
	if *base != *wantBase {
		t.Fatalf("%s: baseline counters\n got  %+v\n want %+v", what, *base, *wantBase)
	}
	if len(lanes) > 0 && got != lanes[0].Stats {
		t.Fatalf("%s: Stats is not lane 0's counters", what)
	}
	for k := range lanes {
		if *lanes[k].Stats != *refStats[k] {
			t.Fatalf("%s: lane %d (%v) counters\n got  %+v\n want %+v",
				what, k, lanes[k].Config(), *lanes[k].Stats, *refStats[k])
		}
		if lanes[k].cfg.Consistency == PolicyEvictInvalidate {
			if bad := lanes[k].CheckInvariant(c); bad != 0 {
				t.Fatalf("%s: lane %d: %d pairs violate MAB ⊆ cache", what, k, bad)
			}
		}
	}
	geo := c.Config()
	for _, rc := range refCaches {
		for set := 0; set < geo.Sets; set++ {
			for w := 0; w < geo.Ways; w++ {
				tag, valid := c.TagAt(uint32(set), w)
				rtag, rvalid := rc.TagAt(uint32(set), w)
				if valid != rvalid || (valid && tag != rtag) {
					t.Fatalf("%s: cache line (%d,%d) diverged from a reference", what, set, w)
				}
			}
		}
	}
}

// runDLanes feeds evs to an N-lane DController in the given blocks and,
// event by event, to baseline.OriginalD plus one reference controller per
// lane, checking everything after every block. With observe, the set
// buffer observes the controller and must match a baseline.SetBufferD.
// It returns the controller.
func runDLanes(t *testing.T, what string, lc laneCase, evs []trace.DataEvent, cuts [][2]int, observe bool) *DController {
	t.Helper()
	d := NewDLanes(lc.geo, lc.cfgs)
	var sb *stats.Counters
	var setBuf *baseline.SetBufferD
	if observe {
		sb, setBuf = d.ObserveSetBuffer(), baseline.NewSetBufferD(lc.geo)
	}
	orig := baseline.NewOriginalD(lc.geo)
	refs := make([]*refD, len(lc.cfgs))
	refStats := make([]*stats.Counters, len(lc.cfgs))
	refCaches := []*cache.Cache{orig.Cache}
	for k, cfg := range lc.cfgs {
		refs[k] = newRefD(lc.geo, cfg)
		refStats[k], refCaches = refs[k].Stats, append(refCaches, refs[k].Cache)
	}
	for _, cut := range cuts {
		blk := evs[cut[0]:cut[1]]
		d.OnDataBatch(blk)
		orig.OnDataBatch(blk)
		for i := range blk {
			for _, ref := range refs {
				ref.access(&blk[i])
			}
		}
		at := fmt.Sprintf("%s after event %d", what, cut[1])
		checkLanes(t, at, d.Baseline, d.Stats, orig.Stats, d.Lanes, refStats, d.Cache, refCaches)
		if observe {
			setBuf.OnDataBatch(blk)
			checkObserver(t, at, "set buffer", sb, setBuf.Stats)
		}
	}
	return d
}

// checkObserver compares an observer's counters with its standalone
// controller's.
func checkObserver(t *testing.T, what, name string, got, want *stats.Counters) {
	t.Helper()
	if *got != *want {
		t.Fatalf("%s: %s counters\n got  %+v\n want %+v", what, name, *got, *want)
	}
}

// runILanes is runDLanes for the I-cache controller against
// baseline.OriginalI, with approach [4] as the observer.
func runILanes(t *testing.T, what string, lc laneCase, evs []trace.FetchEvent, cuts [][2]int, observe bool) *IController {
	t.Helper()
	ic := NewILanes(lc.geo, lc.cfgs)
	var a4 *stats.Counters
	var approach4 *baseline.Approach4I
	if observe {
		a4, approach4 = ic.ObserveApproach4(), baseline.NewApproach4I(lc.geo)
	}
	orig := baseline.NewOriginalI(lc.geo)
	refs := make([]*refI, len(lc.cfgs))
	refStats := make([]*stats.Counters, len(lc.cfgs))
	refCaches := []*cache.Cache{orig.Cache}
	for k, cfg := range lc.cfgs {
		refs[k] = newRefI(lc.geo, cfg)
		refStats[k], refCaches = refs[k].Stats, append(refCaches, refs[k].Cache)
	}
	for _, cut := range cuts {
		blk := evs[cut[0]:cut[1]]
		ic.OnFetchBatch(blk)
		orig.OnFetchBatch(blk)
		for i := range blk {
			for _, ref := range refs {
				ref.fetch(&blk[i])
			}
		}
		at := fmt.Sprintf("%s after fetch %d", what, cut[1])
		checkLanes(t, at, ic.Baseline, ic.Stats, orig.Stats, ic.Lanes, refStats, ic.Cache, refCaches)
		if observe {
			approach4.OnFetchBatch(blk)
			checkObserver(t, at, "approach [4]", a4, approach4.Stats)
		}
	}
	return ic
}

// TestLanesMatchReferenceRandom is the lane contract on random streams:
// an N-lane controller leaves its baseline counters equal to
// baseline.OriginalD's (OriginalI's) and each lane's equal to a reference
// one-MAB controller's, over random geometries, lane sets, policies and
// clearing modes, with streams that force bypasses and, under PolicyPaper,
// violations. Every evict-invalidate lane keeps MAB ⊆ cache throughout.
// On every other seed the set buffer and approach [4] observe the
// controllers and must match their standalone controllers.
//
// The seeds must also exercise the shared path of lanes grouped by (Nt,
// policy, clearing mode): a group of at least three lanes, a PolicyPaper
// group with violations, and a group whose set-index list was full when a
// new set index reclaimed its least recent slot.
func TestLanesMatchReferenceRandom(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 24
	}
	var violations, bypasses uint64
	var wide, paperViolations, reclaims int
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		lc := randomLaneCase(r)
		const n = 6000
		observe := seed%2 == 0
		devs := randomDataStream(r, lc.geo, n)
		d := runDLanes(t, fmt.Sprintf("seed %d D %v", seed, lc), lc, devs, blocks(r, n), observe)
		ic := runILanes(t, fmt.Sprintf("seed %d I %v", seed, lc), lc, randomFetchStream(r, lc.geo, n), blocks(r, n), observe)
		for _, s := range []*stats.Counters{d.Stats, ic.Stats} {
			bypasses += s.MABBypasses
		}
		for k := range lc.cfgs {
			violations += d.Lanes[k].Stats.Violations + ic.Lanes[k].Stats.Violations
		}
		sets := probedSets(lc.geo, devs)
		for _, ls := range []*laneSet{&d.ls, &ic.ls} {
			for k := range ls.stacks {
				st := &ls.stacks[k]
				if len(st.lanes) >= 3 {
					wide++
				}
				if st.m.cfg.Consistency == PolicyPaper {
					for _, h := range st.hist {
						if h.violations > 0 {
							paperViolations++
							break
						}
					}
				}
				if ls == &d.ls && sets > st.m.cfg.SetEntries {
					reclaims++
				}
			}
		}
	}
	if violations == 0 || bypasses == 0 {
		t.Fatalf("streams exercised %d violations and %d bypasses; want both > 0", violations, bypasses)
	}
	t.Logf("groups: %d of three or more lanes, %d PolicyPaper ones with violations, %d reclaiming from a full list",
		wide, paperViolations, reclaims)
	if wide == 0 || paperViolations == 0 || reclaims == 0 {
		t.Fatalf("groups: %d of three or more lanes, %d PolicyPaper ones with violations, %d reclaiming from a full list; want all > 0",
			wide, paperViolations, reclaims)
	}
}

// probedSets counts the distinct set indices the adder makes of the
// in-range accesses of evs: more than a group's deepest lane holds means
// its set-index list was full when a new one arrived.
func probedSets(geo cache.Config, evs []trace.DataEvent) int {
	a := newAdder(geo)
	seen := map[uint32]bool{}
	for _, ev := range evs {
		if a.inRange(ev.Disp) {
			_, set := a.key(ev.Base, ev.Disp)
			seen[set] = true
		}
	}
	return len(seen)
}

// TestLanesMatchReferencePaperCaptures runs the same contract over the
// seven benchmarks' captured streams at three geometries, with lanes
// covering both policies and every clearing mode, alone and in groups of
// two and three, and both observers.
func TestLanesMatchReferencePaperCaptures(t *testing.T) {
	geos := []cache.Config{cache.FRV32K, {Sets: 64, Ways: 4, LineBytes: 16}, {Sets: 16, Ways: 1, LineBytes: 64}}
	cfgs := []Config{
		DefaultD,
		{TagEntries: 2, SetEntries: 16},
		{TagEntries: 2, SetEntries: 32},
		{TagEntries: 1, SetEntries: 4, Clear: ClearAll},
		{TagEntries: 2, SetEntries: 8, Consistency: PolicyPaper},
		{TagEntries: 2, SetEntries: 4, Consistency: PolicyPaper},
		{TagEntries: 2, SetEntries: 8, Consistency: PolicyPaper, Clear: ClearLRURow},
		{TagEntries: 4, SetEntries: 2, Consistency: PolicyPaper, Clear: ClearNone},
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
		for _, geo := range geos {
			lc := laneCase{geo, cfgs}
			r := rand.New(rand.NewSource(1))
			runDLanes(t, fmt.Sprintf("%s D %v", w.Name, geo), lc, datas, bigBlocks(r, len(datas)), true)
			runILanes(t, fmt.Sprintf("%s I %v", w.Name, geo), lc, fetches, bigBlocks(r, len(fetches)), true)
		}
	}
}

// bigBlocks cuts n events into replay-sized blocks of random length.
func bigBlocks(r *rand.Rand, n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; {
		hi := min(n, lo+1+r.Intn(8192))
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// TestStateBytesBoundsAllocation holds StateBytes to what it claims: the
// bytes NewDLanes and NewILanes allocate, as runtime.MemStats.TotalAlloc
// counts them, are at most StateBytes, for random geometries up to 2^14
// sets and random lane lists, lanes alone and in groups. TotalAlloc also
// counts what the runtime and the test framework allocate meanwhile,
// which can only add, so each constructor's figure is the least of three
// builds.
//
// A ways group of two to eight geometries (NewDWays, NewIWays) over the
// same lanes, made evict-invalidate, allocates at most the sum of
// StateBytes over its geometries: so the per-point MaxStateBytes check and
// explore's maxShardPoints still bound what a shard holds live.
func TestStateBytesBoundsAllocation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rw := rand.New(rand.NewSource(2)) // the ways groups' draws
	var keep any
	least := func(f func()) uint64 {
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		return got
	}
	build := []func(geo cache.Config, cfgs []Config){
		func(geo cache.Config, cfgs []Config) { keep = NewDLanes(geo, cfgs) },
		func(geo cache.Config, cfgs []Config) { keep = NewILanes(geo, cfgs) },
	}
	buildWays := []func(geos []cache.Config, cfgs []Config){
		func(geos []cache.Config, cfgs []Config) { keep = NewDWays(geos, cfgs) },
		func(geos []cache.Config, cfgs []Config) { keep = NewIWays(geos, cfgs) },
	}
	for i := range 200 {
		lc := randomLaneCase(r)
		lc.geo = cache.Config{Sets: 1 << r.Intn(15), Ways: 1 << r.Intn(5), LineBytes: 16 << r.Intn(3)}
		if i%4 == 0 {
			for k := range lc.cfgs {
				lc.cfgs[k].SetEntries = 1 + r.Intn(64)
			}
		}
		want := StateBytes(lc.geo, lc.cfgs)
		for side, f := range build {
			if got := least(func() { f(lc.geo, lc.cfgs) }); got > uint64(want) {
				t.Fatalf("%v side %d: allocated %d bytes, StateBytes %d", lc, side, got, want)
			}
		}

		wc := waysCase{cfgs: slices.Clone(lc.cfgs)}
		for k := range wc.cfgs {
			wc.cfgs[k].Consistency = PolicyEvictInvalidate
		}
		want = 0
		for range 2 + rw.Intn(7) {
			geo := lc.geo
			geo.Ways = 1 + rw.Intn(16)
			wc.geos = append(wc.geos, geo)
			want += StateBytes(geo, wc.cfgs)
		}
		for side, f := range buildWays {
			if got := least(func() { f(wc.geos, wc.cfgs) }); got > uint64(want) {
				t.Fatalf("%v side %d: allocated %d bytes, StateBytes summed %d", wc, side, got, want)
			}
		}
	}
	runtime.KeepAlive(keep)
}
