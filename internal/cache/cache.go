// Package cache models a set-associative write-back cache at the level of
// detail the paper's evaluation needs: which line sits in which way, per-set
// LRU replacement, dirty bits and eviction callbacks.
//
// The package deliberately does not count tag or data-way accesses itself:
// how many tag comparators and data ways light up per access is exactly what
// distinguishes the paper's technique from its baselines, so accounting
// belongs to the controllers (internal/core, internal/baseline).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes cache geometry. The paper's FR-V caches are
// {Sets: 512, Ways: 2, LineBytes: 32} = 32KB.
type Config struct {
	Sets      int
	Ways      int
	LineBytes int
}

// FRV32K is the 32KB 2-way 512-set 32-byte-line geometry used throughout the
// paper for both the instruction and data cache.
var FRV32K = Config{Sets: 512, Ways: 2, LineBytes: 32}

// MaxLines caps Sets×Ways. A model allocates its lines up front (16 B
// each, plus a 4 B MAB entry per set), and a geometry can arrive from a
// sweep request, so the cap keeps one technique instance under 20 MiB: 1 Mi
// lines is 32 MiB of data at the paper's 32 B lines, 1024 times the
// paper's cache.
const MaxLines = 1 << 20

// Validate reports whether the configuration is usable: power-of-two sets
// and line size, a tag at least one bit wide on 32-bit addresses, and at
// most MaxLines lines.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets %d not a power of two", c.Sets)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d", c.Ways)
	}
	if b := c.OffsetBits() + c.SetBits(); b > 31 {
		return fmt.Errorf("cache: %d sets of %d B lines use %d address bits, leaving no tag (at most 31)",
			c.Sets, c.LineBytes, b)
	}
	if c.Ways > MaxLines/c.Sets {
		return fmt.Errorf("cache: %d sets x %d ways exceeds %d lines", c.Sets, c.Ways, MaxLines)
	}
	return nil
}

// SizeBytes returns the total data capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// OffsetBits returns the number of line-offset address bits.
func (c Config) OffsetBits() int { return log2(c.LineBytes) }

// SetBits returns the number of set-index address bits.
func (c Config) SetBits() int { return log2(c.Sets) }

// TagBits returns the number of tag bits for 32-bit addresses (18 for the
// paper's geometry).
func (c Config) TagBits() int { return 32 - c.OffsetBits() - c.SetBits() }

// Set extracts the set index of addr.
func (c Config) Set(addr uint32) uint32 {
	return addr >> uint(c.OffsetBits()) & uint32(c.Sets-1)
}

// Tag extracts the tag of addr.
func (c Config) Tag(addr uint32) uint32 {
	return addr >> uint(c.OffsetBits()+c.SetBits())
}

// LineAddr returns the address of the first byte of the line holding addr.
func (c Config) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(c.LineBytes-1)
}

// log2 of a power of two. A single bit-length instruction, not a loop: Set
// and Tag sit on the per-access hot path of every cache controller, and the
// replay engine makes that path the dominant cost of a design-space sweep.
func log2(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v)) - 1
}

type line struct {
	tag     uint32
	valid   bool
	dirty   bool
	lastUse uint64
}

// Eviction describes a line displaced by a refill.
type Eviction struct {
	Tag   uint32
	Set   uint32
	Way   int
	Dirty bool
}

// Cache is the structural state of one cache.
type Cache struct {
	cfg   Config
	lines []line
	clock uint64

	// Address-slicing constants, precomputed at New: Set/Tag extraction is
	// on the per-access path of every controller and every replayed event.
	offBits  uint
	setMask  uint32
	tagShift uint

	// OnEvict, when non-nil, is called for every valid line displaced by a
	// Fill. The Memory Address Buffer's sound consistency policy hooks this
	// to invalidate matching entries.
	OnEvict func(ev Eviction)
}

// New returns an empty cache with the given geometry.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, cfg.Sets*cfg.Ways),
		offBits:  uint(cfg.OffsetBits()),
		setMask:  uint32(cfg.Sets - 1),
		tagShift: uint(cfg.OffsetBits() + cfg.SetBits()),
	}
}

// set and tag are Config.Set and Config.Tag on the precomputed constants.
func (c *Cache) set(addr uint32) uint32 { return addr >> c.offBits & c.setMask }
func (c *Cache) tag(addr uint32) uint32 { return addr >> c.tagShift }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) line(set uint32, way int) *line {
	return &c.lines[int(set)*c.cfg.Ways+way]
}

// Lookup reports whether addr hits, and in which way. It does not change any
// state (no LRU update). The way scan indexes off a precomputed set base so
// the per-way step is one add, not a multiply — this is the single most
// executed loop of every controller.
func (c *Cache) Lookup(addr uint32) (way int, hit bool) {
	set, tag := c.set(addr), c.tag(addr)
	base := int(set) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if l := &c.lines[base+w]; l.valid && l.tag == tag {
			return w, true
		}
	}
	return -1, false
}

// Present reports whether the line holding addr is resident in the given
// way. It is used by the MAB checker to validate memoized ways.
func (c *Cache) Present(addr uint32, way int) bool {
	if way < 0 || way >= c.cfg.Ways {
		return false
	}
	l := c.line(c.set(addr), way)
	return l.valid && l.tag == c.tag(addr)
}

// Touch marks (set,way) most recently used. Every access — including
// memoized ones, where the MAB supplies the way — must Touch the line so the
// replacement state matches a conventional cache.
func (c *Cache) Touch(addr uint32, way int) {
	c.clock++
	c.line(c.set(addr), way).lastUse = c.clock
}

// MarkDirty sets the dirty bit of (set,way).
func (c *Cache) MarkDirty(addr uint32, way int) {
	c.line(c.set(addr), way).dirty = true
}

// VictimWay returns the way that a fill to addr's set would replace: the
// first invalid way, else the least recently used.
func (c *Cache) VictimWay(addr uint32) int {
	set := c.set(addr)
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.line(set, w)
		if !l.valid {
			return w
		}
		if l.lastUse < oldest {
			victim, oldest = w, l.lastUse
		}
	}
	return victim
}

// Fill installs the line holding addr, evicting the LRU way if needed.
// It returns the way used and the eviction (Way < 0 when nothing valid was
// displaced). The new line is clean and most recently used.
func (c *Cache) Fill(addr uint32) (way int, ev Eviction) {
	set, tag := c.set(addr), c.tag(addr)
	way = c.VictimWay(addr)
	l := c.line(set, way)
	ev = Eviction{Way: -1}
	if l.valid {
		ev = Eviction{Tag: l.tag, Set: set, Way: way, Dirty: l.dirty}
		if c.OnEvict != nil {
			c.OnEvict(ev)
		}
	}
	c.clock++
	*l = line{tag: tag, valid: true, lastUse: c.clock}
	return way, ev
}

// TagAt returns the tag and validity of (set,way); for checkers and tests.
func (c *Cache) TagAt(set uint32, way int) (tag uint32, valid bool) {
	l := c.line(set, way)
	return l.tag, l.valid
}

// Flush invalidates every line (no write-backs are modelled).
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}
