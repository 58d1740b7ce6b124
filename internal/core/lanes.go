package core

import (
	"unsafe"

	"waymemo/internal/cache"
	"waymemo/internal/stats"
)

// Lane is one MAB size attached to a way-memoized controller's cache.
//
// Way memoization changes which arrays an access reads, never whether it
// hits or what it evicts (§3 of the paper), so every MAB size of one
// geometry sees the same cache contents, LRU order and evictions. A
// controller therefore keeps one cache and runs one conventional access
// per event for all its lanes; each lane adds only its MAB and the counts
// in which the lanes differ. laneSet.access gives the order of the work.
type Lane struct {
	// MAB is the lane's buffer.
	MAB *MAB
	// Stats holds the counters a one-lane controller of this MAB would
	// fill on the same stream. The controller brings them up to date after
	// every block or event it is handed.
	Stats *stats.Counters

	evict bool // PolicyEvictInvalidate: evictions clear this lane's pairs
	way   int  // this access's probe: the memoized way, or -1

	// hits counts verified MAB hits, storeHits the stores among them, and
	// violations the MAB hits whose line had left the memoized way.
	hits, storeHits, violations uint64
}

// shared counts what the baseline and every lane see alike: the access mix
// and the conventional access's outcome.
type shared struct {
	accesses, stores         uint64
	hits, misses, writeBacks uint64
	bypasses                 uint64    // accesses no lane could probe
	case1                    uint64    // I side: intra-line fetches served from the previous way
	flow                     [4]uint64 // I side, by trace.FlowCase
}

// laneSet is what both controllers run their accesses on: one cache, its
// lanes, the adder they share and the shared counts.
type laneSet struct {
	cache *cache.Cache
	lanes []Lane
	adder adder
	n     shared
}

func newLaneSet(geo cache.Config, cfgs []Config) laneSet {
	if len(cfgs) == 0 {
		panic("core: a way-memoized controller needs at least one MAB")
	}
	ls := laneSet{cache: cache.New(geo), lanes: make([]Lane, len(cfgs)), adder: newAdder(geo)}
	for k, cfg := range cfgs {
		ls.lanes[k] = Lane{
			MAB:   New(cfg, geo),
			Stats: &stats.Counters{},
			evict: cfg.Consistency == PolicyEvictInvalidate,
		}
	}
	return ls
}

// access counts one access to addr, runs it through the cache and every
// lane and returns the way that holds the line afterwards.
//
// An access is probed when it is tracked — it has a base+displacement
// form — and the displacement is in the low adder's range. Then every lane
// is probed with the adder's key before the cache changes. A lane's MAB
// hit is verified when the line is resident in the memoized way, and then
// names the way the access hits, so the cache is not searched. The
// conventional access follows; its eviction clears the pairs of every
// evict-invalidate lane. Last, every lane whose hit was not verified
// updates. An access that was not probed applies every lane's clearing
// rule instead, after the access: clearing only kills pairs, as the
// eviction does, so the two commute.
//
// The first lane is handled in line and the others in probeRest and
// settleRest: with a loop over all the lanes around the probe call, the
// one-lane controller was about 12% slower per event, in alternated
// in-process replays of the paper's captures.
func (ls *laneSet) access(addr, base uint32, disp int32, store, tracked bool) int {
	n, c, lanes := &ls.n, ls.cache, ls.lanes
	probed := tracked && ls.adder.inRange(disp)
	n.accesses++
	if store {
		n.stores++
	}
	var word uint64
	var set uint32
	way, hit := -1, false
	if probed {
		word, set = ls.adder.key(base, disp)
		if w := lanes[0].probe(word, set); w >= 0 && c.Present(addr, w) {
			way, hit = w, true
		}
		if len(lanes) > 1 {
			way, hit = ls.probeRest(word, set, addr, way, hit)
		}
	}
	if hit {
		n.hits++
		c.Touch(addr, way)
		if store {
			c.MarkDirty(addr, way)
		}
	} else {
		var ev cache.Eviction
		if way, hit, ev = c.Access(addr, store); hit {
			n.hits++
		} else {
			n.misses++
			if ev.Way >= 0 {
				ls.evicted(ev)
			}
		}
	}
	if !probed {
		n.bypasses++
		for k := range lanes {
			lanes[k].MAB.OnBypass()
		}
		return way
	}
	lanes[0].settle(word, set, way, hit, store)
	if len(lanes) > 1 {
		ls.settleRest(word, set, way, hit, store)
	}
	return way
}

// probe looks the lane's MAB up and returns the memoized way, or -1.
func (l *Lane) probe(word uint64, set uint32) int {
	l.way = l.MAB.probeKey(word, set)
	return l.way
}

// probeRest probes every lane after the first; way and hit carry the
// verified hit found so far.
func (ls *laneSet) probeRest(word uint64, set uint32, addr uint32, way int, hit bool) (int, bool) {
	for k := 1; k < len(ls.lanes); k++ {
		if w := ls.lanes[k].probe(word, set); !hit && w >= 0 && ls.cache.Present(addr, w) {
			way, hit = w, true
		}
	}
	return way, hit
}

// settle counts the lane's verified hit, or else memoizes way.
func (l *Lane) settle(word uint64, set uint32, way int, hit, store bool) {
	if hit && l.way == way {
		l.hits++
		if store {
			l.storeHits++
		}
		return
	}
	l.update(word, set, way)
}

// settleRest settles every lane after the first.
func (ls *laneSet) settleRest(word uint64, set uint32, way int, hit, store bool) {
	for k := 1; k < len(ls.lanes); k++ {
		ls.lanes[k].settle(word, set, way, hit, store)
	}
}

// evicted counts a line a miss displaced and clears its pairs in every
// evict-invalidate lane.
func (ls *laneSet) evicted(ev cache.Eviction) {
	if ev.Dirty {
		ls.n.writeBacks++
	}
	for k := range ls.lanes {
		if l := &ls.lanes[k]; l.evict {
			l.MAB.OnEviction(ev)
		}
	}
}

// update memoizes way for the key after a full access. A MAB hit whose
// line had left the memoized way is a violation (PolicyPaper only), and
// its stale pair is cleared first.
func (l *Lane) update(word uint64, set uint32, way int) {
	if l.way >= 0 {
		l.violations++
		l.MAB.invalidateKey(word, set)
	}
	l.MAB.updateKey(word, set, way)
}

// outcome writes the counters every technique shares into s: the access
// mix and the cache outcome. The controllers write field by field, not
// whole Counters values, because OnData and OnFetch sync after every
// event.
func (n *shared) outcome(s *stats.Counters) {
	s.Accesses = n.accesses
	s.Loads = n.accesses - n.stores
	s.Stores = n.stores
	s.Hits = n.hits
	s.Misses = n.misses
	s.Refills = n.misses
	s.WriteBacks = n.writeBacks
}

// mabCounts writes lane l's MAB activity into s: every probed access is a
// lookup, and every lookup that is not a verified hit updates.
func (l *Lane) mabCounts(s *stats.Counters, bypasses, lookups uint64) {
	s.MABBypasses = bypasses
	s.MABLookups = lookups
	s.MABHits = l.hits
	s.MABMisses = lookups - l.hits
	s.MABUpdates = lookups - l.hits
	s.Violations = l.violations
}

// MaxStateBytes bounds the state one grid point's controller allocates up
// front, StateBytes. Like cache.MaxLines and MaxPairs it stops a sweep
// request from asking for more memory than Go can recover from failing to
// allocate; it bounds how many MABs a point carries, which neither of
// those does. The largest cache MaxLines admits (16 MiB of lines, at one
// set per line) with the paper's full 8-size MAB grid needs about 48 MiB,
// since every MAB keeps a 4 B entry per cache set.
const MaxStateBytes = 64 << 20

// StateBytes returns the bytes a controller over geo with one lane per
// configuration allocates up front: the cache's lines, and per lane the
// MAB's reverse map (4 B per cache set), its Nt×Ns pairs, its table slots
// and entries, and the lane's own structures.
func StateBytes(geo cache.Config, cfgs []Config) int64 {
	const perLane = int64(unsafe.Sizeof(Lane{}) + unsafe.Sizeof(MAB{}) + unsafe.Sizeof(stats.Counters{}))
	const perTag = int64(unsafe.Sizeof(slot{}) + unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(uint32(0)))
	const perSet = int64(unsafe.Sizeof(slot{}) + unsafe.Sizeof(uint32(0)))
	n := geo.StateBytes()
	for _, c := range cfgs {
		nt, ns := int64(c.TagEntries), int64(c.SetEntries)
		n += perLane + 4*int64(geo.Sets) + nt*ns*int64(unsafe.Sizeof(pair{})) + nt*perTag + ns*perSet
	}
	return n
}
