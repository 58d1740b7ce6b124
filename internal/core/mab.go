// Package core implements the paper's contribution: the Memory Address
// Buffer (MAB) and the way-memoized cache controllers built around it.
//
// The MAB (Section 3.3, Figure 3 of the paper) keeps two small tables:
//
//   - a tag table of Nt entries, each holding the upper 18 bits of a *base*
//     address plus a 2-bit cflag (the carry out of a 14-bit adder over the
//     low address bits, and the sign class of the displacement), and
//   - a set-index table of Ns entries, each holding a 9-bit set index,
//
// plus an Nt×Ns cross-product of valid flags and memoized way numbers. A
// 2x8-entry MAB can therefore memoize up to 16 addresses while storing only
// 2 tags and 8 set indices.
//
// Because the tag table is keyed by the base address's upper bits and the
// cflag — not by the final tag — the MAB can be probed in parallel with the
// 32-bit address adder: only a 14-bit add of the low bits is needed, whose
// delay is below the full adder's. Two different (base, cflag) keys may
// denote the same physical tag; that costs hits, never correctness.
//
// The hardware compares every entry at once. The model matches that with
// a layout in which probe, update, invalidation and eviction each take a
// fixed number of steps however large Ns is:
//
//   - a reverse map from cache set index to set slot (-1 when absent)
//     replaces the scan of the set-index table;
//   - each tag entry is one packed key<<2|cflag word, so a tag match is one
//     compare, over at most Nt (1-4) entries;
//   - the cross-product is one flat row-major slice of (birth stamp, way)
//     cells. A cell is valid while its birth stamp is newer than the death
//     stamps of its tag row and its set column, so killing a whole row or
//     column when its entry is replaced is one store;
//   - slots fill in index order and never empty again, so a fill count
//     replaces per-slot valid bits, and a doubly linked recency list per
//     table names the LRU victim — the one the paper's per-entry LRU
//     clocks would pick — without a scan.
package core

import (
	"fmt"

	"waymemo/internal/cache"
	"waymemo/internal/synth"
)

// Policy selects how the MAB is kept consistent with the cache (MAB ⊆ cache:
// a valid MAB pair must always point at a resident line).
type Policy uint8

const (
	// PolicyEvictInvalidate clears MAB pairs that match a line evicted from
	// the cache. It is sound by construction and is the default used for
	// the power results. Hardware cost: one reverse comparison per refill,
	// which is rare.
	PolicyEvictInvalidate Policy = iota
	// PolicyPaper relies solely on the paper's LRU argument and the
	// large-displacement clearing rule. The controllers detect and count
	// (rare) violations of MAB ⊆ cache under this policy; see DESIGN.md for
	// a concrete interleaving that triggers one when the number of tag
	// entries equals the number of cache ways.
	PolicyPaper
)

// ClearMode selects what the MAB invalidates when an access bypasses it
// (displacement out of the 14-bit adder's range, or an indirect jump).
type ClearMode uint8

const (
	// ClearAuto picks ClearNone for PolicyEvictInvalidate (evictions are
	// already precise) and ClearAll for PolicyPaper.
	ClearAuto ClearMode = iota
	// ClearAll invalidates every vflag: trivially conservative.
	ClearAll
	// ClearLRURow invalidates only the LRU tag row, one reading of the
	// paper's §3.3 rule.
	ClearLRURow
	// ClearNone performs no invalidation.
	ClearNone
)

// Config sizes and parameterizes a MAB.
type Config struct {
	// TagEntries (Nt) and SetEntries (Ns). The paper finds 2x8 optimal for
	// the D-cache and uses 2x16 for the I-cache.
	TagEntries int
	SetEntries int

	Consistency Policy
	Clear       ClearMode
}

// DefaultD is the paper's D-cache MAB configuration (2 tags × 8 set indices).
var DefaultD = Config{TagEntries: 2, SetEntries: 8}

// DefaultI is the paper's I-cache MAB configuration (2 tags × 16 set
// indices).
var DefaultI = Config{TagEntries: 2, SetEntries: 16}

func (c Config) clearMode() ClearMode {
	if c.Clear != ClearAuto {
		return c.Clear
	}
	if c.Consistency == PolicyPaper {
		return ClearAll
	}
	return ClearNone
}

// String names the configuration like the paper ("2x8").
func (c Config) String() string {
	return fmt.Sprintf("%dx%d", c.TagEntries, c.SetEntries)
}

// Lookup is the result of probing the MAB.
type Lookup struct {
	// InRange is false when the displacement exceeds the low adder's range
	// and the MAB must be bypassed.
	InRange bool
	// Hit reports a valid (tag,set) pair; Way is then the memoized way.
	Hit bool
	Way int
	// PredictedAddr is the line-aligned address the pair denotes; the
	// controllers use it to verify the memoized way against the cache.
	PredictedAddr uint32
}

// MAB is the Memory Address Buffer.
type MAB struct {
	cfg        Config
	geo        cache.Config
	lowBits    uint // offset+set bits covered by the small adder (14)
	offsetBits uint
	lowMask    uint32
	tagMask    uint32 // physical tag width

	// Tag table: packed key<<2 | cflag words, so a match is one compare,
	// and the physical tag each entry denotes, for eviction matches.
	tags    slots
	tagWord []uint64
	tagTrue []uint32

	// Set-index table plus its reverse map from cache set index to slot.
	sets    slots
	setIdx  []uint32
	setSlot []int32 // -1 when the set index is not in the table

	// pairs is the Nt×Ns cross-product, row-major (tag slot i, set slot j at
	// i*Ns+j). A pair is valid while its birth stamp is newer than both its
	// row's and its column's death stamps, so replacing or clearing a whole
	// row or column is one store.
	pairs []pair
	stamp uint64 // birth stamp of the most recently installed pair
}

// pair is one (tag, set) cell: the stamp it was installed at (0 when
// invalidated on its own) and the memoized way. An int32 holds every way
// number of a geometry cache.Config.Validate accepts (at most
// cache.MaxLines ways).
type pair struct {
	born uint64
	way  int32
}

// New builds a MAB for a cache with the given geometry.
func New(cfg Config, geo cache.Config) *MAB {
	if cfg.TagEntries <= 0 || cfg.SetEntries <= 0 {
		panic(fmt.Sprintf("core: bad MAB config %+v", cfg))
	}
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	nt, ns := cfg.TagEntries, cfg.SetEntries
	m := &MAB{
		cfg:        cfg,
		geo:        geo,
		lowBits:    uint(geo.OffsetBits() + geo.SetBits()),
		offsetBits: uint(geo.OffsetBits()),
		tags:       newSlots(nt),
		tagWord:    make([]uint64, nt),
		tagTrue:    make([]uint32, nt),
		sets:       newSlots(ns),
		setIdx:     make([]uint32, ns),
		setSlot:    make([]int32, geo.Sets),
		pairs:      make([]pair, nt*ns),
	}
	m.lowMask = 1<<m.lowBits - 1
	m.tagMask = uint32(1)<<(32-m.lowBits) - 1
	for s := range m.setSlot {
		m.setSlot[s] = -1
	}
	return m
}

// Config returns the MAB configuration.
func (m *MAB) Config() Config { return m.cfg }

// Characterize returns the circuit model (area, delay, active/sleep power)
// of this MAB's configuration, per Tables 1-3 of the paper.
func (m *MAB) Characterize() synth.Result {
	return synth.Characterize(m.cfg.TagEntries, m.cfg.SetEntries)
}

// InRange reports whether disp fits the low adder: its upper bits must be
// all zeros or all ones (|disp| < 2^lowBits), the paper's §3.3 condition.
func (m *MAB) InRange(disp int32) bool {
	hi := disp >> m.lowBits
	return hi == 0 || hi == -1
}

// key computes the tag-table word for (base, disp) — the base's upper bits
// and the cflag from the low adder, packed as key<<2 | cflag — and the set
// index the low adder produces.
func (m *MAB) key(base uint32, disp int32) (word uint64, setIdx uint32) {
	low := base & m.lowMask
	dlow := uint32(disp) & m.lowMask
	sum := low + dlow
	carry := uint64(sum >> m.lowBits & 1)
	sign := uint64(0)
	if disp < 0 {
		sign = 1
	}
	return uint64(base>>m.lowBits)<<2 | carry | sign<<1, (sum & m.lowMask) >> m.offsetBits
}

// trueTag returns the physical cache tag a tag word denotes: key + carry
// (positive displacement) or key + carry - 1 (negative).
func (m *MAB) trueTag(word uint64) uint32 {
	adj := uint32(word & 1)
	if word&2 != 0 {
		adj--
	}
	return (uint32(word>>2) + adj) & m.tagMask
}

// findTag returns the tag slot holding word, or -1. Nt is the MAB's small
// dimension (1-4 in every configuration the paper evaluates).
func (m *MAB) findTag(word uint64) int {
	for i, w := range m.tagWord[:m.tags.fill] {
		if w == word {
			return i
		}
	}
	return -1
}

// alive reports whether pair p of tag slot i and set slot j is valid.
func (m *MAB) alive(p *pair, i, j int) bool {
	return p.born > m.tags.s[i].dead && p.born > m.sets.s[j].dead
}

// Probe looks (base, disp) up without modifying anything except the LRU
// order on a hit (a hit is also a use).
func (m *MAB) Probe(base uint32, disp int32) Lookup {
	if !m.InRange(disp) {
		return Lookup{}
	}
	word, _ := m.key(base, disp)
	// Reconstruct the predicted address the way the hardware does: the low
	// bits come from the 14-bit adder, the tag from the base's upper bits
	// adjusted by carry and displacement sign. For in-range displacements
	// this equals base+disp — TestPredictedAddressProperty proves it.
	adj := uint32(word & 1)
	if word&2 != 0 {
		adj--
	}
	predLow := (base + uint32(disp)) & m.lowMask
	res := Lookup{InRange: true, PredictedAddr: (uint32(word>>2)+adj)<<m.lowBits | predLow}
	res.Way, res.Hit = m.probeFast(base, disp)
	return res
}

// probeFast is Probe stripped for the controllers' per-event hot path: the
// caller has already checked InRange, and nothing on the hot path consumes
// the predicted address (the controllers verify the memoized way against
// the final address the trace already carries), so neither is recomputed
// here.
func (m *MAB) probeFast(base uint32, disp int32) (way int, hit bool) {
	word, setIdx := m.key(base, disp)
	j := int(m.setSlot[setIdx])
	if j < 0 {
		return 0, false
	}
	i := m.findTag(word)
	if i < 0 {
		return 0, false
	}
	if p := &m.pairs[i*m.cfg.SetEntries+j]; m.alive(p, i, j) {
		m.tags.touch(i)
		m.sets.touch(j)
		return int(p.way), true
	}
	return 0, false
}

// Update installs (base, disp) → way after a full cache access, following
// the four hit/miss cases of §3.3.
func (m *MAB) Update(base uint32, disp int32, way int) {
	if !m.InRange(disp) {
		return
	}
	word, setIdx := m.key(base, disp)
	i := m.findTag(word)
	if i >= 0 {
		m.tags.touch(i)
	} else {
		// Replace the LRU tag row; all pairs of the old row die.
		i = m.tags.claim(m.stamp)
		m.tagWord[i], m.tagTrue[i] = word, m.trueTag(word)
	}
	j := int(m.setSlot[setIdx])
	if j >= 0 {
		m.sets.touch(j)
	} else {
		// Replace the LRU set column; all pairs of the old column die. A
		// slot filled for the first time is in no reverse-map entry.
		j = m.sets.claim(m.stamp)
		if old := m.setIdx[j]; m.setSlot[old] == int32(j) {
			m.setSlot[old] = -1
		}
		m.setIdx[j], m.setSlot[setIdx] = setIdx, int32(j)
	}
	m.stamp++
	m.pairs[i*m.cfg.SetEntries+j] = pair{born: m.stamp, way: int32(way)}
}

// Invalidate clears the pair denoting (base, disp) if present. Used when a
// verified MAB hit turns out stale under PolicyPaper.
func (m *MAB) Invalidate(base uint32, disp int32) {
	if !m.InRange(disp) {
		return
	}
	word, setIdx := m.key(base, disp)
	if i, j := m.findTag(word), int(m.setSlot[setIdx]); i >= 0 && j >= 0 {
		m.pairs[i*m.cfg.SetEntries+j].born = 0
	}
}

// OnBypass applies the configured conservative clearing when an access
// cannot be tracked by the MAB (large displacement or indirect jump).
func (m *MAB) OnBypass() {
	switch m.cfg.clearMode() {
	case ClearAll:
		for i := 0; i < m.tags.fill; i++ {
			m.tags.s[i].dead = m.stamp
		}
	case ClearLRURow:
		// While a tag slot is unfilled it is the LRU row, and it holds no
		// valid pair.
		if m.tags.full() {
			m.tags.s[m.tags.tail].dead = m.stamp
		}
	}
}

// OnEviction clears pairs that denote the evicted line. Wired to
// cache.Cache.OnEvict under PolicyEvictInvalidate.
func (m *MAB) OnEviction(ev cache.Eviction) {
	j := int(m.setSlot[ev.Set])
	if j < 0 {
		return
	}
	for i := 0; i < m.tags.fill; i++ {
		if m.tagTrue[i] == ev.Tag {
			m.pairs[i*m.cfg.SetEntries+j].born = 0
		}
	}
}

// ValidPairs returns the number of currently valid (tag,set) pairs.
func (m *MAB) ValidPairs() int {
	n := 0
	m.eachValid(func(int, int, *pair) { n++ })
	return n
}

// CheckInvariant verifies MAB ⊆ cache: every valid pair's line must be
// resident at the memoized way. It returns the number of violating pairs.
func (m *MAB) CheckInvariant(c *cache.Cache) int {
	bad := 0
	m.eachValid(func(i, j int, p *pair) {
		tag, valid := c.TagAt(m.setIdx[j], int(p.way))
		if !valid || tag != m.tagTrue[i] {
			bad++
		}
	})
	return bad
}

// eachValid calls f for every valid pair.
func (m *MAB) eachValid(f func(i, j int, p *pair)) {
	for i := 0; i < m.tags.fill; i++ {
		for j := 0; j < m.sets.fill; j++ {
			if p := &m.pairs[i*m.cfg.SetEntries+j]; m.alive(p, i, j) {
				f(i, j, p)
			}
		}
	}
}

// slots is the bookkeeping one MAB table (tags or set indices) keeps per
// slot. Slots fill in index order and are never emptied again, so a fill
// count says which are in use. A doubly linked recency list, most recent
// first, makes touching a slot and naming the least recently used one
// O(1); its order is exactly that of per-slot last-use clocks, so it picks
// the victim a min-clock scan would.
type slots struct {
	s          []slot
	fill       int
	head, tail int
}

type slot struct {
	prev, next int32  // recency list neighbours, -1 at either end
	dead       uint64 // the slot's pairs born at or before this stamp are dead
}

func newSlots(n int) slots {
	return slots{s: make([]slot, n), head: -1, tail: -1}
}

func (t *slots) full() bool { return t.fill == len(t.s) }

// claim picks the slot a new entry goes in — the next unfilled one, else
// the least recently used — makes it the most recent, and kills its pairs
// born up to stamp.
func (t *slots) claim(stamp uint64) int {
	var x int
	if t.full() {
		x = t.tail
		t.touch(x)
	} else {
		x = t.fill
		t.fill++
		t.s[x].prev, t.s[x].next = -1, int32(t.head)
		if t.head >= 0 {
			t.s[t.head].prev = int32(x)
		} else {
			t.tail = x
		}
		t.head = x
	}
	t.s[x].dead = stamp
	return x
}

// touch makes the filled slot x the most recent.
func (t *slots) touch(x int) {
	if t.head == x {
		return
	}
	s := t.s
	p, n := s[x].prev, s[x].next
	s[p].next = n
	if n >= 0 {
		s[n].prev = p
	} else {
		t.tail = int(p)
	}
	s[x].prev, s[x].next = -1, int32(t.head)
	s[t.head].prev = int32(x)
	t.head = x
}
