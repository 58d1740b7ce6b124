package core

import (
	"fmt"
	"slices"

	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// WayLevel is one geometry of a ways group (see NewDWays): the counters a
// one-geometry controller of it, NewDLanes or NewILanes with the group's
// MAB configurations, fills on the same stream.
type WayLevel struct {
	Geometry cache.Config
	// Baseline holds the conventional access's counters.
	Baseline *stats.Counters
	// Lanes holds one lane's counters per MAB configuration, in order.
	Lanes []*stats.Counters
}

// waySet is laneSet for several geometries that share sets and line size
// and differ only in ways: one pass computes what a one-geometry
// controller of each would count.
//
// An LRU set of w ways holds exactly the w most recently used distinct
// lines of the set, for every w: the inclusion property of LRU stacks
// (Mattson et al., IBM Syst. J. 9(2), 1970). It holds for cache.Cache,
// whose lines fill the first invalid way and are never invalidated but
// by Flush. So each set keeps one recency-ordered array of tags, as deep
// as the largest way count, and each distinct way count is a level on it.
// An access finds its line's depth d once. It hits in every level of more
// than d ways. In every other level the entry at depth w−1 moves one
// deeper, out of the level: that is the level's eviction. Physical way
// numbers never appear.
//
// The adder, and with it every MAB's key stream, depends on sets and line
// size alone, and every probed access makes its key the most recent in
// the MAB's tables whatever the cache holds. So the levels share one MAB
// per group of lanes (one stack each, a lone lane a one-level stack), and
// only pair validity differs among them. Under PolicyEvictInvalidate a
// pair is valid while its line stays resident since the access that wrote
// it, and its line leaves the levels in ascending order: a pair's way
// field holds its way floor, the lowest level still holding it. An access
// resets its pair's floor to 0, and a line leaving level k raises the
// floors of its pairs to k+1. A probe then hits in the levels at or above
// the floor, and stacks count hits per (MAB level, floor).
//
// PolicyPaper lanes stay with one-geometry controllers: their violations
// depend on physical ways. So do the observers.
type waySet struct {
	adder
	offBits, tagShift uint
	setMask           uint32

	ways   []int32   // the distinct way counts, ascending: the levels
	rows   []wayLine // per set, ways[len(ways)-1] entries, most recent first
	fill   []int32   // per set, its valid entries: a prefix of its row
	stacks []stack   // one per group of lanes
	lanes  []Lane    // per MAB configuration: its group and depth level

	n     shared   // hits, misses and writeBacks are per level, below
	first []uint64 // per level: accesses that hit first at that level; one more for misses
	wb    []uint64 // per level: write-backs

	unnamed uint64 // accesses a one-geometry controller's physical ways decide (see Exact)

	levels  []WayLevel
	levelOf []int32 // per level in levels, its index into ways
}

// wayLine is one entry of a set's recency array. A line is dirty in the
// levels it is resident in from level dirty up: a store dirties it in
// every level, a line leaving a level takes that level's dirty bit with
// it, and a line that returns comes back clean into the levels it had
// left. So the levels it is dirty in are always the top of those it is
// resident in.
type wayLine struct {
	tag   uint32
	dirty int32 // len(ways) when clean in every level
}

// newWaySet builds a ways group over geos, which must share sets and line
// size, with one lane per configuration of cfgs, all PolicyEvictInvalidate.
func newWaySet(geos []cache.Config, cfgs []Config) waySet {
	if len(geos) == 0 || len(cfgs) == 0 {
		panic("core: a ways group needs at least one geometry and one MAB")
	}
	geo := geos[0]
	for _, g := range geos {
		if err := g.Validate(); err != nil {
			panic(err)
		}
		if g.Sets != geo.Sets || g.LineBytes != geo.LineBytes {
			panic(fmt.Sprintf("core: geometries %+v and %+v differ in more than ways", geo, g))
		}
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			panic(err)
		}
		if c.Consistency != PolicyEvictInvalidate {
			panic(fmt.Sprintf("core: MAB %s: a ways group needs PolicyEvictInvalidate", c))
		}
	}
	ways := make([]int32, len(geos))
	for i, g := range geos {
		ways[i] = int32(g.Ways)
	}
	slices.Sort(ways)
	ways = slices.Compact(ways)
	nl, depth := len(ways), int(ways[len(ways)-1])
	w := waySet{
		adder:    newAdder(geo),
		offBits:  uint(geo.OffsetBits()),
		tagShift: uint(geo.OffsetBits() + geo.SetBits()),
		setMask:  uint32(geo.Sets - 1),
		ways:     ways,
		rows:     make([]wayLine, geo.Sets*depth),
		fill:     make([]int32, geo.Sets),
		lanes:    make([]Lane, len(cfgs)),
		first:    make([]uint64, nl+1),
		wb:       make([]uint64, nl),
		levels:   make([]WayLevel, len(geos)),
		levelOf:  make([]int32, len(geos)),
	}
	for k, c := range cfgs {
		w.lanes[k].cfg = c
	}
	plans := planGroups(cfgs)
	w.stacks = make([]stack, len(plans))
	for g, p := range plans {
		w.stacks[g] = newStack(geo, p, w.lanes, nl)
		for _, l := range w.stacks[g].lanes {
			l.stack = &w.stacks[g]
		}
	}
	for i, g := range geos {
		lv := WayLevel{Geometry: g, Baseline: &stats.Counters{}, Lanes: make([]*stats.Counters, len(cfgs))}
		for k := range lv.Lanes {
			lv.Lanes[k] = &stats.Counters{}
		}
		w.levels[i] = lv
		k, _ := slices.BinarySearch(ways, int32(g.Ways))
		w.levelOf[i] = int32(k)
	}
	return w
}

// access counts one access to addr at every level: the probe of every
// group, the cache access at every level, then the groups settle. It is
// laneSet.access with the cache replaced by the recency arrays; an access
// that is not probed applies every group's clearing rule instead.
func (w *waySet) access(addr, base uint32, disp int32, store, tracked bool) {
	n := &w.n
	probed := tracked && w.inRange(disp)
	n.accesses++
	if store {
		n.stores++
	}
	var word uint64
	var set uint32
	if probed {
		word, set = w.key(base, disp)
		if (addr^(base+uint32(disp)))>>(w.offBits&31) != 0 {
			w.unnamed++
		}
		for k := range w.stacks {
			w.stacks[k].probe(word, set)
		}
	}
	w.touch(addr, store)
	if !probed {
		n.bypasses++
		for k := range w.stacks {
			w.stacks[k].m.OnBypass()
		}
		return
	}
	for k := range w.stacks {
		w.stacks[k].settleFloor(word, set, store)
	}
}

// touch makes addr's line the most recent of its set. Its depth d before
// the access decides every level: a hit where the level has more than d
// ways, and otherwise, when the level is full, the eviction of its entry
// at depth ways−1, which writes back if dirty in the level and raises the
// floors of the line's pairs.
func (w *waySet) touch(addr uint32, store bool) {
	set, tag := addr>>(w.offBits&31)&w.setMask, addr>>(w.tagShift&31)
	depth := int(w.ways[len(w.ways)-1])
	row := w.rows[int(set)*depth : int(set+1)*depth]
	f := int(w.fill[set])
	d := 0
	for d < f && row[d].tag != tag {
		d++
	}
	nl := int32(len(w.ways))
	kd := nl // the first level the line was resident in
	if d < f {
		kd = 0
		for int(w.ways[kd]) <= d {
			kd++
		}
	} else if f < depth {
		w.fill[set]++
	}
	w.first[kd]++
	for k, wk := range w.ways {
		if int(wk) > d {
			break
		}
		e := &row[wk-1]
		if e.dirty <= int32(k) {
			w.wb[k]++
		}
		for g := range w.stacks {
			w.stacks[g].m.leave(set, e.tag, int32(k))
		}
	}
	ln := wayLine{tag: tag, dirty: nl}
	if d < f {
		ln.dirty = max(row[d].dirty, kd)
	}
	if store {
		ln.dirty = 0
	}
	copy(row[1:min(d+1, depth)], row[:d])
	row[0] = ln
}

// case1 counts an I-side intra-line sequential fetch: its line is the
// previous fetch's, at depth 0, so it hits in every level and moves
// nothing.
func (w *waySet) case1() {
	w.n.accesses++
	w.n.case1++
	w.first[0]++
}

// settleFloor counts the probe's hit against its first valid level and
// its pair's way floor, then refreshes the pair with floor 0: the access
// made its line the most recent in every level.
func (s *stack) settleFloor(word uint64, set uint32, store bool) {
	if f, fl := s.first, s.way; f < len(s.depths) && fl < s.floors {
		h := &s.hist[f*s.floors+fl]
		h.hits++
		if store {
			h.storeHits++
		}
	}
	s.first = len(s.hist) // counted: settle only refreshes
	s.settle(word, set, 0, false, false)
}

// leave is OnEviction for a ways group: the line (set, tag) left way
// level k, so each of its pairs holds it from level k+1 up at most.
func (m *MAB) leave(set, tag uint32, k int32) {
	j := int(m.setSlot[set])
	if j < 0 {
		return
	}
	for i := 0; i < m.tags.fill; i++ {
		if p := &m.pairs[i*m.cfg.SetEntries+j]; m.tagTrue[i] == tag && p.way <= k {
			p.way = k + 1
		}
	}
}

// sync writes every level's counters: fetch selects the I-side ones.
func (w *waySet) sync(fetch bool) {
	for k := range w.stacks {
		w.stacks[k].fold()
	}
	for i := range w.levels {
		lv, k := &w.levels[i], int(w.levelOf[i])
		n, ways := w.n, uint64(lv.Geometry.Ways)
		for _, c := range w.first[:k+1] {
			n.hits += c
		}
		n.misses, n.writeBacks = n.accesses-n.hits, w.wb[k]
		if fetch {
			n.fetchBaseline(lv.Baseline, ways)
		} else {
			n.dataBaseline(lv.Baseline, ways)
		}
		for j := range w.lanes {
			l := &w.lanes[j]
			c := l.stack.sum[l.level*l.stack.floors+k]
			if fetch {
				n.fetchLane(lv.Lanes[j], ways, c)
			} else {
				n.dataLane(lv.Lanes[j], ways, c)
			}
		}
	}
}

// DWays is DController for several geometries at once: one data-cache
// controller per geometry, each with the same MAB lanes, computed in one
// pass (see waySet). Each level's counters equal those of a NewDLanes of
// its geometry fed the same stream, as long as Exact holds.
type DWays struct {
	// Levels holds one WayLevel per geometry, in the order given.
	Levels []WayLevel
	w      waySet
}

var _ trace.DataSink = (*DWays)(nil)

// NewDWays builds a data-cache ways group: geos must share sets and line
// size, and every configuration must be PolicyEvictInvalidate.
func NewDWays(geos []cache.Config, mcfgs []Config) *DWays {
	d := &DWays{w: newWaySet(geos, mcfgs)}
	d.Levels = d.w.levels
	return d
}

// OnDataBatch processes one block of accesses.
func (d *DWays) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		ev := &evs[i]
		d.w.access(ev.Addr, ev.Base, ev.Disp, ev.Store, true)
	}
	d.w.sync(false)
}

// Exact reports whether every probed access so far lay in the line its
// base and displacement name, as the simulators' accesses do. Otherwise a
// one-geometry controller's counts depend on the physical way its MAB
// memoized, which no level tracks, and the levels must be simulated one
// geometry at a time.
func (d *DWays) Exact() bool { return d.w.unnamed == 0 }

// IWays is IController for several geometries at once, as DWays is
// DController.
type IWays struct {
	// Levels holds one WayLevel per geometry, in the order given.
	Levels []WayLevel
	w      waySet

	lineBytes uint32
	prevLine  uint32 // the line of the previous fetch, when havePrev
	havePrev  bool
}

var _ trace.FetchSink = (*IWays)(nil)

// NewIWays builds an instruction-cache ways group, as NewDWays.
func NewIWays(geos []cache.Config, mcfgs []Config) *IWays {
	ic := &IWays{w: newWaySet(geos, mcfgs), lineBytes: uint32(geos[0].LineBytes)}
	ic.Levels = ic.w.levels
	return ic
}

// OnFetchBatch processes one block of fetches as IController.OnFetchBatch
// does, at every level.
func (ic *IWays) OnFetchBatch(evs []trace.FetchEvent) {
	w := &ic.w
	for i := range evs {
		ev := &evs[i]
		line := ev.Addr >> (w.offBits & 31)
		if !ev.First {
			flow := trace.Classify(*ev, ic.lineBytes)
			w.n.flow[flow]++
			if flow == trace.IntraSeq && ic.havePrev {
				if line != ic.prevLine {
					w.unnamed++
				}
				w.case1()
				continue
			}
		}
		w.access(ev.Addr, ev.Base, ev.Disp, false, !ev.First && ev.Kind != trace.KindIndirect)
		ic.prevLine, ic.havePrev = line, true
	}
	w.sync(true)
}

// Exact is DWays.Exact for fetches. A case-1 fetch must also lie in the
// previous fetch's line, as it does when its Prev is that fetch's packet.
func (ic *IWays) Exact() bool { return ic.w.unnamed == 0 }
