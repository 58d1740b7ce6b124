package core

import (
	"fmt"
	"math/rand"
	"testing"

	"waymemo/internal/cache"
)

// oracleMAB is an independent reference implementation of the MAB's §3.3
// semantics, written with maps and recency lists instead of tables, used to
// cross-check the production implementation on random streams.
type oracleMAB struct {
	nt, ns     int
	lowBits    uint
	offsetBits uint
	clear      ClearMode

	tagOrder []oracleKey // MRU first
	setOrder []uint32    // MRU first
	pairs    map[oraclePair]int
}

type oracleKey struct {
	key   uint32
	cflag uint8
}

type oraclePair struct {
	k oracleKey
	s uint32
}

func newOracleMAB(cfg Config, g cache.Config) *oracleMAB {
	return &oracleMAB{
		nt:         cfg.TagEntries,
		ns:         cfg.SetEntries,
		lowBits:    uint(g.OffsetBits() + g.SetBits()),
		offsetBits: uint(g.OffsetBits()),
		clear:      cfg.clearMode(),
		pairs:      map[oraclePair]int{},
	}
}

func (o *oracleMAB) keyOf(base uint32, disp int32) (oracleKey, uint32, bool) {
	hi := disp >> o.lowBits
	if hi != 0 && hi != -1 {
		return oracleKey{}, 0, false
	}
	mask := uint32(1)<<o.lowBits - 1
	sum := (base & mask) + (uint32(disp) & mask)
	carry := uint8(sum >> o.lowBits & 1)
	sign := uint8(0)
	if disp < 0 {
		sign = 1
	}
	return oracleKey{base >> o.lowBits, carry | sign<<1}, (sum & mask) >> o.offsetBits, true
}

// physTag is the cache tag a key denotes: the base's upper bits plus the
// carry, minus one for a negative displacement, modulo the tag width.
func (o *oracleMAB) physTag(k oracleKey) uint32 {
	t := int64(k.key) + int64(k.cflag&1) - int64(k.cflag>>1)
	return uint32(t & (int64(1)<<(32-o.lowBits) - 1))
}

func (o *oracleMAB) findTag(k oracleKey) int {
	for i, e := range o.tagOrder {
		if e == k {
			return i
		}
	}
	return -1
}

func (o *oracleMAB) findSet(s uint32) int {
	for i, e := range o.setOrder {
		if e == s {
			return i
		}
	}
	return -1
}

func (o *oracleMAB) touchTag(i int) {
	k := o.tagOrder[i]
	copy(o.tagOrder[1:i+1], o.tagOrder[:i])
	o.tagOrder[0] = k
}

func (o *oracleMAB) touchSet(i int) {
	s := o.setOrder[i]
	copy(o.setOrder[1:i+1], o.setOrder[:i])
	o.setOrder[0] = s
}

func (o *oracleMAB) dropPairs(drop func(oraclePair) bool) {
	for p := range o.pairs {
		if drop(p) {
			delete(o.pairs, p)
		}
	}
}

func (o *oracleMAB) probe(base uint32, disp int32) (int, bool) {
	k, s, ok := o.keyOf(base, disp)
	if !ok {
		return 0, false
	}
	ti, si := o.findTag(k), o.findSet(s)
	if ti < 0 || si < 0 {
		return 0, false
	}
	way, valid := o.pairs[oraclePair{k, s}]
	if !valid {
		return 0, false
	}
	o.touchTag(ti)
	o.touchSet(si)
	return way, true
}

func (o *oracleMAB) update(base uint32, disp int32, way int) {
	k, s, ok := o.keyOf(base, disp)
	if !ok {
		return
	}
	if i := o.findTag(k); i >= 0 {
		o.touchTag(i)
	} else {
		if len(o.tagOrder) == o.nt {
			victim := o.tagOrder[o.nt-1]
			o.tagOrder = o.tagOrder[:o.nt-1]
			o.dropPairs(func(p oraclePair) bool { return p.k == victim })
		}
		o.tagOrder = append([]oracleKey{k}, o.tagOrder...)
	}
	if i := o.findSet(s); i >= 0 {
		o.touchSet(i)
	} else {
		if len(o.setOrder) == o.ns {
			victim := o.setOrder[o.ns-1]
			o.setOrder = o.setOrder[:o.ns-1]
			o.dropPairs(func(p oraclePair) bool { return p.s == victim })
		}
		o.setOrder = append([]uint32{s}, o.setOrder...)
	}
	o.pairs[oraclePair{k, s}] = way
}

func (o *oracleMAB) invalidate(base uint32, disp int32) {
	if k, s, ok := o.keyOf(base, disp); ok {
		delete(o.pairs, oraclePair{k, s})
	}
}

func (o *oracleMAB) bypass() {
	switch o.clear {
	case ClearAll:
		o.dropPairs(func(oraclePair) bool { return true })
	case ClearLRURow:
		// While a tag entry is still unused, it is the LRU row, and it
		// holds no pair.
		if len(o.tagOrder) == o.nt {
			victim := o.tagOrder[o.nt-1]
			o.dropPairs(func(p oraclePair) bool { return p.k == victim })
		}
	}
}

func (o *oracleMAB) evict(ev cache.Eviction) {
	o.dropPairs(func(p oraclePair) bool { return p.s == ev.Set && o.physTag(p.k) == ev.Tag })
}

// violations counts pairs whose line is not resident at the memoized way.
func (o *oracleMAB) violations(c *cache.Cache) int {
	bad := 0
	for p, way := range o.pairs {
		if tag, valid := c.TagAt(p.s, way); !valid || tag != o.physTag(p.k) {
			bad++
		}
	}
	return bad
}

// TestMABAgainstOracle drives random access streams through the production
// MAB and the reference model, each wired to a real cache the way the
// controllers wire it, and demands identical hit/way behaviour, valid pair
// counts and invariant violation counts. Geometries (4-128 B lines, 1-4096
// sets), MAB sizes (1-4 tags × 1-64 sets), both consistency policies and
// every clearing mode are covered, so eviction callbacks, stale-hit
// invalidation and bypass clearing are all cross-checked.
func TestMABAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	geosPerMode, steps := 6, 30000
	if testing.Short() {
		geosPerMode, steps = 2, 10000
	}
	for _, policy := range []Policy{PolicyEvictInvalidate, PolicyPaper} {
		for _, clear := range []ClearMode{ClearAuto, ClearAll, ClearLRURow, ClearNone} {
			for n := 0; n < geosPerMode; n++ {
				g := cache.Config{
					Sets:      1 << r.Intn(13),
					Ways:      1 + r.Intn(4),
					LineBytes: 4 << r.Intn(6),
				}
				cfg := Config{
					TagEntries:  1 + r.Intn(4),
					SetEntries:  1 + r.Intn(64),
					Consistency: policy,
					Clear:       clear,
				}
				name := fmt.Sprintf("p%d-c%d-%dx%dx%dB-mab%v", policy, clear, g.Sets, g.Ways, g.LineBytes, cfg)
				seed := r.Int63()
				t.Run(name, func(t *testing.T) { checkAgainstOracle(t, cfg, g, seed, steps) })
			}
		}
	}
}

func checkAgainstOracle(t *testing.T, cfg Config, g cache.Config, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	c := cache.New(g)
	m := New(cfg, g)
	o := newOracleMAB(cfg, g)
	if cfg.Consistency == PolicyEvictInvalidate {
		c.OnEvict = func(ev cache.Eviction) {
			m.OnEviction(ev)
			o.evict(ev)
		}
	}
	access := func(addr uint32) int {
		way, hit := c.Lookup(addr)
		if !hit {
			way, _ = c.Fill(addr)
		}
		c.Touch(addr, way)
		return way
	}
	// A few bases in a few low-adder regions make tag, set and cache
	// conflicts frequent at every geometry.
	low := int32(1) << o.lowBits
	bases := make([]uint32, 6)
	for i := range bases {
		bases[i] = uint32(0x100+r.Intn(4))<<o.lowBits | uint32(r.Intn(int(low)))
	}
	for step := 0; step < steps; step++ {
		base := bases[r.Intn(len(bases))]
		var disp int32
		switch k := r.Intn(40); {
		case k == 0:
			disp = low + int32(r.Intn(int(low))) // out of the low adder's range
		case k == 1:
			disp = -low - 1 - int32(r.Intn(int(low)))
		case k < 20:
			disp = int32(r.Intn(4*g.LineBytes)) - int32(2*g.LineBytes)
		default:
			disp = int32(r.Intn(int(2*low))) - low
		}
		if disp >= low || disp < -low {
			if m.InRange(disp) {
				t.Fatalf("step %d: disp %d reported in range", step, disp)
			}
		}
		addr := base + uint32(disp)
		if !m.InRange(disp) {
			m.OnBypass()
			o.bypass()
			access(addr)
			continue
		}
		res := m.Probe(base, disp)
		wantWay, wantHit := o.probe(base, disp)
		if res.Hit != wantHit || (wantHit && res.Way != wantWay) {
			t.Fatalf("step %d: probe(%#x,%d) = hit %v way %d, oracle hit %v way %d",
				step, base, disp, res.Hit, res.Way, wantHit, wantWay)
		}
		if res.PredictedAddr != addr {
			t.Fatalf("step %d: predicted %#x, want %#x", step, res.PredictedAddr, addr)
		}
		switch {
		case res.Hit && c.Present(addr, res.Way):
			c.Touch(addr, res.Way)
			continue
		case res.Hit:
			if cfg.Consistency == PolicyEvictInvalidate {
				t.Fatalf("step %d: stale hit under the evict-invalidate policy", step)
			}
			m.Invalidate(base, disp)
			o.invalidate(base, disp)
		case r.Intn(16) == 0:
			// Invalidating a pair that is absent or already dead is a no-op.
			m.Invalidate(base, disp)
			o.invalidate(base, disp)
		}
		way := access(addr)
		m.Update(base, disp, way)
		o.update(base, disp, way)
		if step%500 == 0 {
			if got, want := m.ValidPairs(), len(o.pairs); got != want {
				t.Fatalf("step %d: valid pairs %d, oracle %d", step, got, want)
			}
			got, want := m.CheckInvariant(c), o.violations(c)
			if got != want {
				t.Fatalf("step %d: invariant violations %d, oracle %d", step, got, want)
			}
			if cfg.Consistency == PolicyEvictInvalidate && got != 0 {
				t.Fatalf("step %d: %d violating pairs under the evict-invalidate policy", step, got)
			}
		}
	}
}
