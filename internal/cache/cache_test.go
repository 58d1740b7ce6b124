package cache

import (
	"math/rand"
	"testing"
)

func TestGeometryFRV32K(t *testing.T) {
	g := FRV32K
	if g.SizeBytes() != 32*1024 {
		t.Errorf("size = %d", g.SizeBytes())
	}
	if g.OffsetBits() != 5 || g.SetBits() != 9 || g.TagBits() != 18 {
		t.Errorf("bits: off=%d set=%d tag=%d", g.OffsetBits(), g.SetBits(), g.TagBits())
	}
	addr := uint32(0xABCD1234)
	if g.Set(addr) != (addr>>5)&511 {
		t.Errorf("set extraction")
	}
	if g.Tag(addr) != addr>>14 {
		t.Errorf("tag extraction")
	}
	if g.LineAddr(addr) != addr&^31 {
		t.Errorf("line addr")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Sets: 3, Ways: 2, LineBytes: 32},
		{Sets: 8, Ways: 2, LineBytes: 24},
		{Sets: 8, Ways: 0, LineBytes: 32},
		// Offset plus set bits must leave a tag on 32-bit addresses.
		{Sets: 1 << 27, Ways: 1, LineBytes: 32},
		{Sets: 2, Ways: 1, LineBytes: 1 << 31},
		{Sets: 1, Ways: 1, LineBytes: 1 << 32},
		// At most MaxLines lines.
		{Sets: 1 << 30, Ways: 1, LineBytes: 1},
		{Sets: 1 << 10, Ways: 1<<10 + 1, LineBytes: 32},
		{Sets: 1, Ways: MaxLines + 1, LineBytes: 32},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
	}
	good := []Config{
		FRV32K,
		{Sets: 1 << 10, Ways: 1 << 10, LineBytes: 32}, // exactly MaxLines
		{Sets: 1, Ways: MaxLines, LineBytes: 4},
		{Sets: 1 << 16, Ways: 1, LineBytes: 1 << 15}, // 31 address bits, a 1-bit tag
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}

func TestFillLookup(t *testing.T) {
	c := New(Config{Sets: 4, Ways: 2, LineBytes: 16})
	addr := uint32(0x1000)
	if _, hit := c.Lookup(addr); hit {
		t.Fatal("hit in empty cache")
	}
	way, ev := c.Fill(addr)
	if ev.Way >= 0 {
		t.Fatal("eviction from empty set")
	}
	if w, hit := c.Lookup(addr); !hit || w != way {
		t.Fatalf("lookup after fill: way=%d hit=%v", w, hit)
	}
	if !c.Present(addr, way) {
		t.Fatal("Present false after fill")
	}
	if c.Present(addr, 1-way) {
		t.Fatal("Present true in wrong way")
	}
}

func TestLRUReplacement(t *testing.T) {
	g := Config{Sets: 4, Ways: 2, LineBytes: 16}
	c := New(g)
	// Three conflicting lines in set 0: tags differ, same set.
	a1 := uint32(0 << 6) // set 0, tag 0
	a2 := uint32(1 << 6) // set 0, tag 1
	a3 := uint32(2 << 6) // set 0, tag 2
	w1, _ := c.Fill(a1)
	w2, _ := c.Fill(a2)
	if w1 == w2 {
		t.Fatal("same way for both fills")
	}
	// Touch a1 so a2 is LRU.
	c.Touch(a1, w1)
	way3, ev := c.Fill(a3)
	if way3 != w2 {
		t.Errorf("victim way = %d, want %d", way3, w2)
	}
	if ev.Way != w2 || ev.Tag != g.Tag(a2) {
		t.Errorf("eviction = %+v", ev)
	}
	if _, hit := c.Lookup(a2); hit {
		t.Error("a2 still resident")
	}
	if _, hit := c.Lookup(a1); !hit {
		t.Error("a1 displaced")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New(Config{Sets: 2, Ways: 1, LineBytes: 16})
	a1, a2 := uint32(0x00), uint32(0x40) // same set 0 (set bits: bit 4)
	w, _ := c.Fill(a1)
	c.MarkDirty(a1, w)
	_, ev := c.Fill(a2)
	if !ev.Dirty {
		t.Fatal("dirty eviction not flagged")
	}
	_, ev2 := c.Fill(a1)
	if ev2.Dirty {
		t.Fatal("clean line flagged dirty")
	}
}

func TestOnEvictCallback(t *testing.T) {
	c := New(Config{Sets: 2, Ways: 1, LineBytes: 16})
	var got []Eviction
	c.OnEvict = func(ev Eviction) { got = append(got, ev) }
	c.Fill(0x00)
	c.Fill(0x40) // displaces 0x00
	c.Fill(0x10) // other set, no eviction
	if len(got) != 1 || got[0].Tag != c.Config().Tag(0x00) || got[0].Set != 0 {
		t.Fatalf("evictions: %+v", got)
	}
}

func TestFlush(t *testing.T) {
	c := New(Config{Sets: 2, Ways: 2, LineBytes: 16})
	c.Fill(0x00)
	c.Flush()
	if _, hit := c.Lookup(0x00); hit {
		t.Fatal("hit after flush")
	}
}

// oracleCache is a straightforward reference model: per set, a slice of tags
// ordered most-recent-first, truncated to Ways entries.
type oracleCache struct {
	cfg  Config
	sets map[uint32][]uint32
}

func newOracle(cfg Config) *oracleCache {
	return &oracleCache{cfg: cfg, sets: make(map[uint32][]uint32)}
}

func (o *oracleCache) access(addr uint32) (hit bool) {
	set, tag := o.cfg.Set(addr), o.cfg.Tag(addr)
	s := o.sets[set]
	for i, tg := range s {
		if tg == tag {
			copy(s[1:i+1], s[:i])
			s[0] = tag
			return true
		}
	}
	s = append([]uint32{tag}, s...)
	if len(s) > o.cfg.Ways {
		s = s[:o.cfg.Ways]
	}
	o.sets[set] = s
	return false
}

// TestAgainstOracle drives random accesses through the structural cache and
// the reference model and demands identical hit/miss behaviour.
func TestAgainstOracle(t *testing.T) {
	cfgs := []Config{
		{Sets: 4, Ways: 1, LineBytes: 16},
		{Sets: 8, Ways: 2, LineBytes: 32},
		{Sets: 2, Ways: 4, LineBytes: 16},
	}
	for _, cfg := range cfgs {
		c := New(cfg)
		o := newOracle(cfg)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 50000; i++ {
			// Small address space to force conflicts.
			addr := uint32(r.Intn(cfg.SizeBytes() * 3))
			way, hit := c.Lookup(addr)
			wantHit := o.access(addr)
			if hit != wantHit {
				t.Fatalf("%+v access %d: hit=%v oracle=%v", cfg, i, hit, wantHit)
			}
			if hit {
				c.Touch(addr, way)
			} else {
				c.Fill(addr)
			}
		}
	}
}
