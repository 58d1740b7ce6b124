package core

import (
	"cmp"
	"slices"
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
// per event for all its lanes; each lane adds only its MAB state and the
// counts in which the lanes differ. laneSet.access gives the order of the
// work.
//
// Lanes that share Nt, consistency policy and clearing mode also share
// their MAB state. Every probed access makes its tag word and set index
// the most recent in every lane, hit or miss, so such lanes hold one tag
// table, and a lane's set table holds exactly the Ns most recently probed
// distinct set indices: the inclusion property of LRU stacks (Mattson et
// al., IBM Syst. J. 9(2), 1970). Such a group keeps one MAB as deep as its
// largest lane, and each lane is a depth threshold on its set-index
// recency list (see stack). A lane alone in its group keeps a MAB of its
// own.
type Lane struct {
	// Stats holds the counters a one-lane controller of this MAB would
	// fill on the same stream. The controller brings them up to date after
	// every block or event it is handed.
	Stats *stats.Counters

	cfg   Config
	mab   *MAB   // the lane's own MAB, or its group's shared one
	stack *stack // the lane's group, nil for a lane alone in it
	level int    // the lane's depth level in stack

	laneCounts // brought up to date with Stats
}

// laneCounts are the counts in which lanes differ: verified MAB hits, the
// stores among them, and violations, the MAB hits whose line had left the
// memoized way.
type laneCounts struct {
	hits, storeHits, violations uint64
}

func (c *laneCounts) add(o laneCounts) {
	c.hits += o.hits
	c.storeHits += o.storeHits
	c.violations += o.violations
}

// Config returns the lane's MAB configuration.
func (l *Lane) Config() Config { return l.cfg }

// CheckInvariant verifies MAB ⊆ cache for the lane: every pair valid in
// the lane must denote a line resident at the memoized way of c, the
// controller's cache. It returns the number of violating pairs.
func (l *Lane) CheckInvariant(c *cache.Cache) int {
	m, bad := l.mab, 0
	m.eachValid(func(i, j int, p *pair) {
		if (l.stack == nil || l.stack.holds(l.level, j, p)) && m.stale(c, i, j, p) {
			bad++
		}
	})
	return bad
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
// lanes in their groups, the adder they share and the shared counts.
type laneSet struct {
	cache  *cache.Cache
	lanes  []Lane
	solos  []solo  // groups of one lane
	stacks []stack // groups of several lanes
	more   bool    // a group besides the first: probeRest and settleRest have work
	stack0 int     // the first stack probeRest and settleRest handle: 1 when access handles stacks[0]
	mabs   []*MAB  // every group's MAB, for the clearing rules
	evict  []*MAB  // the PolicyEvictInvalidate groups' MABs
	adder  adder
	n      shared
}

// solo is a lane alone in its group: its own MAB, probed and updated as a
// one-MAB controller does. A one-level stack computes the same counts, but
// it rewrites the pair and walks its levels on every hit: routed through
// one, a lone lane cost 40.5 ns/event against 30.2 in the synthetic
// BenchmarkDController lanes=1, 46.1 against 36.2 on its jpeg_enc leg and
// 24.6 against 19.8 in BenchmarkIController lanes=1 (medians of 10
// alternated runs on a 2-vCPU machine; the stack was slower in 10, 9 and
// 8 of them).
type solo struct {
	mab  *MAB
	lane *Lane
	way  int // this access's probe: the memoized way, or -1

	// The lane's counts, kept here, not in a laneCounts, so that settle is
	// within the compiler's inlining budget.
	hits, storeHits, violations uint64
}

func newLaneSet(geo cache.Config, cfgs []Config) laneSet {
	if len(cfgs) == 0 {
		panic("core: a way-memoized controller needs at least one MAB")
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			panic(err)
		}
	}
	plans := planGroups(cfgs)
	ls := laneSet{
		cache: cache.New(geo),
		lanes: make([]Lane, len(cfgs)),
		mabs:  make([]*MAB, len(plans)),
		adder: newAdder(geo),
	}
	nsolo, nevict := 0, 0
	for _, p := range plans {
		if len(p.lanes) == 1 {
			nsolo++
		}
		if p.key.Consistency == PolicyEvictInvalidate {
			nevict++
		}
	}
	ls.solos = make([]solo, 0, nsolo)
	ls.stacks = make([]stack, 0, len(plans)-nsolo)
	ls.evict = make([]*MAB, 0, nevict)
	for k, cfg := range cfgs {
		ls.lanes[k] = Lane{Stats: &stats.Counters{}, cfg: cfg}
	}
	for g, p := range plans {
		if len(p.lanes) == 1 {
			l := &ls.lanes[p.lanes[0]]
			l.mab = New(l.cfg, geo)
			ls.solos = append(ls.solos, solo{mab: l.mab, lane: l})
		} else {
			ls.stacks = append(ls.stacks, newStack(geo, p, ls.lanes, 1))
			st := &ls.stacks[len(ls.stacks)-1]
			for _, l := range st.lanes {
				l.stack = st
			}
		}
		ls.mabs[g] = ls.lanes[p.lanes[0]].mab
		if p.key.Consistency == PolicyEvictInvalidate {
			ls.evict = append(ls.evict, ls.mabs[g])
		}
	}
	ls.more = len(plans) > 1
	if len(ls.solos) == 0 {
		ls.stack0 = 1
	}
	return ls
}

// groupPlan names one group's lanes: key is the MAB the group keeps, its
// SetEntries the largest lane's; lanes are in ascending SetEntries, and
// depths holds their distinct SetEntries, ascending.
type groupPlan struct {
	key    Config
	lanes  []int32 // indices into the configurations
	depths []int32
}

// groupKey is the part of c that decides its group.
func groupKey(c Config) Config {
	return Config{TagEntries: c.TagEntries, Consistency: c.Consistency, Clear: c.clearMode()}
}

// planGroups groups cfgs by tag entries, policy and resolved clearing
// mode, groups in that key's order. It sorts the lanes once, by group and
// then SetEntries, so it costs O(n log n) for n lanes, and allocates
// three slices of at most n elements, which StateBytes prices.
func planGroups(cfgs []Config) []groupPlan {
	order := make([]int32, len(cfgs))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := cfgs[a], cfgs[b]
		return cmp.Or(cmp.Compare(x.TagEntries, y.TagEntries), cmp.Compare(x.Consistency, y.Consistency),
			cmp.Compare(x.clearMode(), y.clearMode()), cmp.Compare(x.SetEntries, y.SetEntries), cmp.Compare(a, b))
	})
	plans := make([]groupPlan, 0, len(cfgs))
	depths := make([]int32, 0, len(cfgs))
	for lo := 0; lo < len(order); {
		key, at, hi := groupKey(cfgs[order[lo]]), len(depths), lo
		for ; hi < len(order) && groupKey(cfgs[order[hi]]) == key; hi++ {
			if d := int32(cfgs[order[hi]].SetEntries); len(depths) == at || depths[len(depths)-1] != d {
				depths = append(depths, d)
			}
		}
		key.SetEntries = int(depths[len(depths)-1])
		plans = append(plans, groupPlan{key: key, lanes: order[lo:hi:hi], depths: depths[at:len(depths):len(depths)]})
		lo = hi
	}
	return plans
}

// stack is a group of lanes that share Nt, policy and clearing mode: one
// MAB whose set-index table is as deep as the group's largest lane, and
// per lane a depth threshold on that table's recency list. Lanes of equal
// Ns share a level.
//
// The group's tag table is every lane's. Lane k's set table is the top
// Ns_k entries of the recency list, so a set index leaves it exactly when
// a touch pushes the entry at depth Ns_k−1 one deeper. Its slot's zone
// then names the next level, and a pair is valid in lane k while its
// birth stamp is newer than its row's and its slot's deaths and neither
// the zone nor the pair's own level (pair.lvl) is deeper than k's. Every
// probed access refreshes its pair's stamp, hits
// included, and the pair always holds the way of the key's last probed
// access, which is what every lane whose pair is valid would hold. The
// levels nest: a pair valid in a level is valid in every deeper one, so a
// probe yields the first valid level, and hits, the stores among them and
// violations are counted per first valid level and summed by fold. In a
// ways group they are counted per first valid level and way floor, level
// major in hist.
type stack struct {
	m      *MAB
	depths []int32 // each level's Ns, ascending; the last is m's SetEntries
	bound  []int32 // per level but the last: the slot at depth depths[v]−1, -1 while the list is shorter
	zone   []int32 // per set slot: the first level whose table holds it
	first  int     // this access's first level with a valid pair, len(depths) when none
	way    int     // the pair's memoized way, when first < len(depths)
	row    int     // this access's tag slot, -1 when its word is not in the table
	slot   int     // this access's set slot, -1 when its set index is not in the list
	hist   []laneCounts
	sum    []laneCounts // fold's prefix sums, as hist
	lanes  []*Lane
	floors int // hist's way levels: a ways group's (see waySet), 1 in a one-geometry controller
}

// newStack builds the group p plans over lanes, counting hits at floors
// way levels.
func newStack(geo cache.Config, p groupPlan, lanes []Lane, floors int) stack {
	top := len(p.depths) - 1
	ns := int(p.depths[top])
	s := stack{
		m:      New(p.key, geo),
		depths: p.depths,
		bound:  make([]int32, top),
		zone:   make([]int32, ns),
		floors: floors,
		hist:   make([]laneCounts, (top+1)*floors),
		sum:    make([]laneCounts, (top+1)*floors),
		lanes:  make([]*Lane, len(p.lanes)),
	}
	for v := range s.bound {
		s.bound[v] = -1
	}
	v := 0 // p.lanes ascend in SetEntries, so their levels ascend too
	for i, k := range p.lanes {
		l := &lanes[k]
		for p.depths[v] != int32(l.cfg.SetEntries) {
			v++
		}
		l.mab, l.level = s.m, v
		s.lanes[i] = l
	}
	return s
}

// access counts one access to addr, runs it through the cache and every
// group and returns the way that holds the line afterwards.
//
// An access is probed when it is tracked — it has a base+displacement
// form — and the displacement is in the low adder's range. Then every
// group is probed with the adder's key before the cache changes. A group's
// MAB hit is verified when the line is resident in the memoized way, and
// then names the way the access hits, so the cache is not searched. The
// conventional access follows; its eviction clears the pairs of every
// evict-invalidate group. Last, every group settles: it counts its lanes'
// verified hits and violations, and memoizes the way for the key, in a
// solo lane only when its hit was not verified and in a stack always. An
// access that was not probed applies every group's clearing rule instead,
// after the access: clearing only kills pairs, as the eviction does, so
// the two commute.
//
// The first group — the first solo lane, or the first stack when no lane
// stands alone — is handled in line and every other group in probeRest and
// settleRest: with a loop over all the lanes around the probe call, the
// one-lane controller was about 12% slower per event, in alternated
// in-process replays of the paper's captures, and with the first stack in
// the loop the four-lane BenchmarkDController was about 1.5× slower.
func (ls *laneSet) access(addr, base uint32, disp int32, store, tracked bool) int {
	n, c, solos := &ls.n, ls.cache, ls.solos
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
		if len(solos) > 0 {
			if w := solos[0].probe(word, set); w >= 0 && c.Present(addr, w) {
				way, hit = w, true
			}
		} else if w := ls.stacks[0].probe(word, set); w >= 0 && c.Present(addr, w) {
			way, hit = w, true
		}
		if ls.more {
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
		for _, m := range ls.mabs {
			m.OnBypass()
		}
		return way
	}
	if len(solos) > 0 {
		solos[0].settle(word, set, way, hit, store)
	} else {
		ls.stacks[0].settle(word, set, way, hit, store)
	}
	if ls.more {
		ls.settleRest(word, set, way, hit, store)
	}
	return way
}

// probe looks the lane's MAB up and returns the memoized way, or -1.
func (s *solo) probe(word uint64, set uint32) int {
	s.way = s.mab.probeKey(word, set)
	return s.way
}

// probeRest probes every group after the first; way and hit
// carry the verified hit found so far.
func (ls *laneSet) probeRest(word uint64, set uint32, addr uint32, way int, hit bool) (int, bool) {
	for k := 1; k < len(ls.solos); k++ {
		if w := ls.solos[k].probe(word, set); !hit && w >= 0 && ls.cache.Present(addr, w) {
			way, hit = w, true
		}
	}
	for k := ls.stack0; k < len(ls.stacks); k++ {
		if w := ls.stacks[k].probe(word, set); !hit && w >= 0 && ls.cache.Present(addr, w) {
			way, hit = w, true
		}
	}
	return way, hit
}

// settle counts the lane's verified hit, or else memoizes way.
func (s *solo) settle(word uint64, set uint32, way int, hit, store bool) {
	if hit && s.way == way {
		s.hits++
		if store {
			s.storeHits++
		}
		return
	}
	s.update(word, set, way)
}

// update memoizes way for the key after a full access. A MAB hit whose
// line had left the memoized way is a violation (PolicyPaper only); the
// update overwrites its stale pair. It stays out of line so that settle,
// whose hit path is the common one, is inlined into access.
//
//go:noinline
func (s *solo) update(word uint64, set uint32, way int) {
	if s.way >= 0 {
		s.violations++
	}
	s.mab.updateKey(word, set, way)
}

// settleRest settles every group after the first.
func (ls *laneSet) settleRest(word uint64, set uint32, way int, hit, store bool) {
	for k := 1; k < len(ls.solos); k++ {
		ls.solos[k].settle(word, set, way, hit, store)
	}
	for k := ls.stack0; k < len(ls.stacks); k++ {
		ls.stacks[k].settle(word, set, way, hit, store)
	}
}

// evicted counts a line a miss displaced and clears its pairs in every
// evict-invalidate group.
func (ls *laneSet) evicted(ev cache.Eviction) {
	if ev.Dirty {
		ls.n.writeBacks++
	}
	for _, m := range ls.evict {
		m.OnEviction(ev)
	}
}

// fold brings every lane's counts up to date.
func (ls *laneSet) fold() {
	for k := range ls.solos {
		s := &ls.solos[k]
		s.lane.laneCounts = laneCounts{s.hits, s.storeHits, s.violations}
	}
	for k := range ls.stacks {
		ls.stacks[k].fold()
	}
}

// probe returns the memoized way of the key's pair, or -1 when no level
// holds a valid one, and notes the first level that does.
func (s *stack) probe(word uint64, set uint32) int {
	m, top := s.m, len(s.bound)
	s.first = top + 1
	i, j := m.findTag(word), int(m.setSlot[set])
	s.row, s.slot = i, j
	if i < 0 || j < 0 {
		return -1
	}
	p := &m.pairs[i*m.cfg.SetEntries+j]
	if !m.alive(p, i, j) {
		return -1
	}
	s.first, s.way = s.level(j, p), int(p.way)
	return s.way
}

// level returns the first level that holds the valid pair p of set slot
// j: the levels above the slot's zone no longer hold the slot, and those
// above the pair's own level lost it since the pair's last access.
func (s *stack) level(j int, p *pair) int { return int(max(s.zone[j], p.lvl)) }

// holds reports whether level v holds the valid pair p of set slot j.
func (s *stack) holds(v, j int, p *pair) bool { return v >= s.level(j, p) }

// settle counts the probe's verified hit or violation against its first
// level, then makes the key's tag word and set index the most recent and
// refreshes its pair with way.
func (s *stack) settle(word uint64, set uint32, way int, hit, store bool) {
	if f := s.first; f < len(s.hist) {
		h := &s.hist[f]
		if hit && s.way == way {
			h.hits++
			if store {
				h.storeHits++
			}
		} else {
			h.violations++
		}
	}
	m, i, j := s.m, s.row, s.slot
	if i >= 0 {
		m.tags.touch(i)
	} else {
		i = m.tags.claim(m.stamp)
		m.tagWord[i], m.tagTrue[i] = word, m.trueTag(word)
	}
	if j >= 0 {
		s.touch(j)
	} else {
		j = s.claim(set)
	}
	m.stamp++
	m.pairs[i*m.cfg.SetEntries+j] = pair{born: m.stamp, way: int32(way)}
}

// touch makes set slot j the most recent. Every level that no longer held
// it loses its last entry; the level whose last entry it was gets the one
// above it as its last. The levels above the slot's zone z hold it again,
// but not the pairs it had: they left those levels with the slot, so the
// column's pairs take z as their first level.
func (s *stack) touch(j int) {
	m := s.m
	t := &m.sets
	if t.head == j {
		return
	}
	above := t.s[j].prev
	t.touch(j)
	z := s.zone[j]
	if z > 0 {
		ns := m.cfg.SetEntries
		for i := j; i < len(m.pairs); i += ns {
			m.pairs[i].lvl = max(m.pairs[i].lvl, z)
		}
	}
	s.cross(int(z))
	if int(z) < len(s.bound) && s.bound[z] == int32(j) {
		s.bound[z] = above
	}
	s.zone[j] = 0
}

// claim gives set a slot at the head of the recency list, the next
// unfilled one or the least recently used, and returns it. Every level
// whose table was full loses its last entry, and a level the list fills
// for the first time gets the tail as its last.
func (s *stack) claim(set uint32) int {
	m := s.m
	t := &m.sets
	z := 0
	for z < len(s.bound) && s.bound[z] >= 0 {
		z++
	}
	j := t.claim(m.stamp)
	if old := m.setIdx[j]; m.setSlot[old] == int32(j) {
		m.setSlot[old] = -1
	}
	m.setIdx[j], m.setSlot[set] = set, int32(j)
	s.cross(z)
	if z < len(s.bound) && t.fill == int(s.depths[z]) {
		s.bound[z] = int32(t.tail)
	}
	s.zone[j] = 0
	return j
}

// cross moves the last entry of every level below z out of it, once the
// touched slot has moved to the head: the entry's zone becomes the next
// level, and the entry above it becomes the level's last.
func (s *stack) cross(z int) {
	sl := s.m.sets.s
	for v := 0; v < z; v++ {
		b := s.bound[v]
		s.zone[b] = int32(v + 1)
		s.bound[v] = sl[b].prev
	}
}

// fold sums hist over both of its axes: a lane counts at way level k
// every probe whose first valid level is its own or a shallower one and
// whose way floor is k or lower. In a one-geometry controller it writes
// every lane's counts; a ways group reads sum itself.
func (s *stack) fold() {
	f := s.floors
	for v := range len(s.depths) {
		var row laneCounts
		for k := range f {
			row.add(s.hist[v*f+k])
			c := row
			if v > 0 {
				c.add(s.sum[(v-1)*f+k])
			}
			s.sum[v*f+k] = c
		}
	}
	if f == 1 {
		for _, l := range s.lanes {
			l.laneCounts = s.sum[l.level]
		}
	}
}

// outcome writes the counters every technique shares into s: the access
// mix and the cache outcome. The controllers write field by field, not
// whole Counters values, because they sync after every block and a tee
// delivers blocks of one event.
func (n *shared) outcome(s *stats.Counters) {
	s.Accesses = n.accesses
	s.Loads = n.accesses - n.stores
	s.Stores = n.stores
	s.Hits = n.hits
	s.Misses = n.misses
	s.Refills = n.misses
	s.WriteBacks = n.writeBacks
}

// mabCounts writes a lane's MAB activity, c its counts, into s: every
// probed access is a lookup, and every lookup that is not a verified hit
// updates.
func (c laneCounts) mabCounts(s *stats.Counters, bypasses, lookups uint64) {
	s.MABBypasses = bypasses
	s.MABLookups = lookups
	s.MABHits = c.hits
	s.MABMisses = lookups - c.hits
	s.MABUpdates = lookups - c.hits
	s.Violations = c.violations
}

// MaxStateBytes bounds the state one grid point's controller allocates up
// front, StateBytes. Like cache.MaxLines and MaxPairs it stops a sweep
// request from asking for more memory than Go can recover from failing to
// allocate; it bounds how many MABs a point carries, which neither of
// those does. The largest cache MaxLines admits (16 MiB of lines, at one
// set per line) with explore's default 8-size MAB grid, {1, 2} × {4, 8,
// 16, 32}, needs about 24 MiB: its two tag widths make two groups, and
// every group keeps a 4 B entry per cache set.
const MaxStateBytes = 64 << 20

// StateBytes returns an upper bound on the bytes NewDLanes or NewILanes
// allocate for a controller over geo with one lane per configuration: the
// controller and its cache's lines; per lane its counters; per group
// (lanes of one Nt, policy and clearing mode) one MAB — its reverse map
// (4 B per cache set), its Nt×Ns pairs and its table slots, Ns its
// largest lane's — and, for a group of several lanes, their depth
// levels' bookkeeping. Each allocation is priced at the size the Go
// allocator rounds it to, at most the next power of two for small objects
// and whole 8 KiB pages for large ones. To price one lane list for many
// geometries, plan it once with PriceState.
func StateBytes(geo cache.Config, cfgs []Config) int64 {
	return PriceState(cfgs).Bytes(geo)
}

// StatePrice is StateBytes for one lane list at every geometry. The
// lanes' groups do not depend on the geometry; the cache and every
// group's reverse map are all that does.
type StatePrice struct {
	fixed  int64 // every allocation but the cache's lines and the reverse maps
	groups int64
}

// PriceState plans cfgs' groups once, in O(n log n) for n lanes.
func PriceState(cfgs []Config) StatePrice {
	n := int64(len(cfgs))
	b := max(sized[DController](), sized[IController]()) + sized[stats.Counters]() + // the baseline's
		sized[cache.Cache]() +
		alloc(n*int64(unsafe.Sizeof(Lane{}))) + n*sized[stats.Counters]() +
		// planGroups: order, depths, plans.
		2*alloc(4*n) + alloc(n*int64(unsafe.Sizeof(groupPlan{})))
	plans := planGroups(cfgs)
	var solos, stacks int64
	for _, p := range plans {
		if len(p.lanes) == 1 {
			solos++
		} else {
			stacks++
		}
	}
	b += 2*alloc((solos+stacks)*int64(unsafe.Sizeof((*MAB)(nil)))) +
		alloc(solos*int64(unsafe.Sizeof(solo{}))) + alloc(stacks*int64(unsafe.Sizeof(stack{})))
	for _, p := range plans {
		nt, ns := int64(p.key.TagEntries), int64(p.key.SetEntries)
		b += sized[MAB]() + alloc(nt*ns*int64(unsafe.Sizeof(pair{}))) +
			alloc(nt*int64(unsafe.Sizeof(slot{}))) + alloc(8*nt) + alloc(4*nt) +
			alloc(ns*int64(unsafe.Sizeof(slot{}))) + alloc(4*ns)
		if len(p.lanes) > 1 {
			levels := int64(len(p.depths))
			b += alloc(4*(levels-1)) + alloc(4*ns) +
				2*alloc(levels*int64(unsafe.Sizeof(laneCounts{}))) + alloc(8*int64(len(p.lanes)))
		}
	}
	return StatePrice{fixed: b, groups: int64(len(plans))}
}

// Bytes returns StateBytes(geo, cfgs) for the cfgs p was planned from.
func (p StatePrice) Bytes(geo cache.Config) int64 {
	return p.fixed + alloc(geo.StateBytes()) + p.groups*alloc(4*int64(geo.Sets))
}

// sized prices one allocation of a T.
func sized[T any]() int64 {
	var v T
	return alloc(int64(unsafe.Sizeof(v)))
}

// alloc bounds the bytes the Go allocator takes for an n-byte object:
// small objects come in size classes no larger than the next power of two
// (the smallest block 16 bytes), large ones in whole 8 KiB pages.
func alloc(n int64) int64 {
	const maxSmall, page = 32 << 10, 8 << 10
	switch {
	case n == 0:
		return 0
	case n > maxSmall:
		return (n + page - 1) &^ (page - 1)
	}
	c := int64(16)
	for c < n {
		c <<= 1
	}
	return c
}
