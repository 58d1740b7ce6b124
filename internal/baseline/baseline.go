// Package baseline implements the cache-access techniques the paper compares
// against (and the related work used for ablation studies):
//
//   - OriginalD / OriginalI: conventional set-associative access — every
//     access reads all tag ways; loads read all data ways in parallel,
//     stores write the single matching way via the write-back buffer.
//   - Approach4I: Panwar & Rennels [4], intra-cache-line sequential-flow way
//     memoization for instruction caches (the paper's I-cache baseline).
//   - SetBufferD: Yang, Yu & Zhang [14], the lightweight set buffer (the
//     paper's D-cache comparison): the SetBuffer rule over its own cache.
//     core.DController runs the same rule over its shared cache.
//
// Further related-work models (filter cache [6], two-phase access [8],
// MRU way prediction [9], Ma link-based memoization [11], line buffer [13])
// live in extensions.go.
package baseline

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// OriginalD is the unmodified data cache.
type OriginalD struct {
	Cache *cache.Cache
	Stats *stats.Counters
}

var _ trace.DataSink = (*OriginalD)(nil)

// OnDataBatch performs a conventional access per event: all tag ways are
// read; loads read all data ways, stores write one. It processes the block
// with direct calls on the concrete controller, walking the block by
// pointer — the devirtualized inner loop of batched delivery, live and
// replayed (see core.IController.OnFetchBatch).
func (d *OriginalD) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		fullDataAccess(d.Cache, d.Stats, &evs[i])
	}
}

// NewOriginalD builds the conventional D-cache controller.
func NewOriginalD(geo cache.Config) *OriginalD {
	return &OriginalD{Cache: cache.New(geo), Stats: &stats.Counters{}}
}

// fullDataAccess is the conventional D-cache access shared by baselines.
// It returns the way that holds the line afterwards.
func fullDataAccess(c *cache.Cache, s *stats.Counters, ev *trace.DataEvent) int {
	s.Accesses++
	if ev.Store {
		s.Stores++
	} else {
		s.Loads++
	}
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

// OriginalI is the unmodified instruction cache.
type OriginalI struct {
	Cache *cache.Cache
	Stats *stats.Counters
}

var _ trace.FetchSink = (*OriginalI)(nil)

// OnFetchBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer.
func (i *OriginalI) OnFetchBatch(evs []trace.FetchEvent) {
	for j := range evs {
		i.fetch(&evs[j])
	}
}

// NewOriginalI builds the conventional I-cache controller.
func NewOriginalI(geo cache.Config) *OriginalI {
	return &OriginalI{Cache: cache.New(geo), Stats: &stats.Counters{}}
}

// fetch performs a conventional fetch: all tag and data ways activate.
func (i *OriginalI) fetch(ev *trace.FetchEvent) {
	i.Stats.Accesses++
	i.Stats.Loads++
	if !ev.First {
		i.Stats.Flow[trace.Classify(*ev, uint32(i.Cache.Config().LineBytes))]++
	}
	fullFetch(i.Cache, i.Stats, ev)
}

// fullFetch is the conventional I-cache access shared by baselines; it
// returns the way holding the line.
func fullFetch(c *cache.Cache, s *stats.Counters, ev *trace.FetchEvent) int {
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

// Approach4I models Panwar & Rennels [4]: intra-cache-line sequential
// fetches reuse the previous way with no tag access; everything else is a
// conventional fetch. This is the left-most bar of Figures 6 and 7.
type Approach4I struct {
	Cache *cache.Cache
	Stats *stats.Counters

	prevWay  int
	havePrev bool
}

var _ trace.FetchSink = (*Approach4I)(nil)

// OnFetchBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer.
func (a *Approach4I) OnFetchBatch(evs []trace.FetchEvent) {
	for i := range evs {
		a.fetch(&evs[i])
	}
}

// NewApproach4I builds the [4] controller.
func NewApproach4I(geo cache.Config) *Approach4I {
	return &Approach4I{Cache: cache.New(geo), Stats: &stats.Counters{}}
}

// fetch applies the intra-line sequential optimization.
func (a *Approach4I) fetch(ev *trace.FetchEvent) {
	s := a.Stats
	s.Accesses++
	s.Loads++
	if !ev.First {
		flow := trace.Classify(*ev, uint32(a.Cache.Config().LineBytes))
		s.Flow[flow]++
		if flow == trace.IntraSeq && a.havePrev {
			s.Case1Skips++
			s.Hits++
			s.WayReads++
			a.Cache.Touch(ev.Addr, a.prevWay)
			return
		}
	}
	a.prevWay = fullFetch(a.Cache, s, ev)
	a.havePrev = true
}

// SetBuffer is the rule of Yang, Yu & Zhang's lightweight set buffer [14]:
// a buffer holding the lines of the most recently used set. An access to
// the buffered set whose tag matches a buffered line is served entirely
// from the buffer (no cache tag or way activates, no cycle penalty).
// Stores hit the buffer write-back style; dirty buffered lines flush to
// their data way when the buffer misses.
//
// The buffer holds only lines the cache holds, in the same ways: it
// latches from the cache after a buffer miss, and only a buffer miss can
// change what the cache holds (every eviction comes from a cache miss).
// So a buffer hit is a cache hit in the same way. SetBufferD serves a
// buffer hit without a cache access; core.DController runs the
// conventional access first, whose Touch and MarkDirty are then the
// buffer hit's, and lets the rule observe it.
type SetBuffer struct {
	c                 *cache.Cache
	offBits, tagShift uint
	setMask           uint32

	valid  bool
	set    uint32
	tags   []uint32
	lineOK []bool
	dirty  []bool

	// hits counts buffer hits, storeHits the stores among them, flushes
	// the dirty lines written back to their ways, and latches the lines
	// copied into the buffer.
	hits, storeHits, flushes, latches uint64
}

// NewSetBuffer returns an empty set buffer over c.
func NewSetBuffer(c *cache.Cache) *SetBuffer {
	geo := c.Config()
	return &SetBuffer{
		c:        c,
		offBits:  uint(geo.OffsetBits()),
		tagShift: uint(geo.OffsetBits() + geo.SetBits()),
		setMask:  uint32(geo.Sets - 1),
		tags:     make([]uint32, geo.Ways),
		lineOK:   make([]bool, geo.Ways),
		dirty:    make([]bool, geo.Ways),
	}
}

// Observe applies the rule to one access to addr that has just run
// conventionally on the cache, leaving the line in way.
func (b *SetBuffer) Observe(addr uint32, store bool, way int) {
	if _, hit := b.serve(addr, store); !hit {
		b.relatch(addr, store, way)
	}
}

// serve reports whether the buffer holds addr's line, and in which way.
// A hit is counted; a store hit also marks the buffered line dirty.
func (b *SetBuffer) serve(addr uint32, store bool) (int, bool) {
	// Masking the shift counts, as cache.Cache does, drops the compiler's
	// guard for counts of 32 or more.
	set, tag := addr>>(b.offBits&31)&b.setMask, addr>>(b.tagShift&31)
	if !b.valid || set != b.set {
		return 0, false
	}
	for w, t := range b.tags {
		if b.lineOK[w] && t == tag {
			b.hits++
			if store {
				b.storeHits++
				b.dirty[w] = true
			}
			return w, true
		}
	}
	return 0, false
}

// relatch handles a buffer miss after its conventional access, which left
// addr's line in way: dirty buffered lines flush to their data ways (their
// buffered copy is newer than the array), then the buffer latches addr's
// set as the access left it.
func (b *SetBuffer) relatch(addr uint32, store bool, way int) {
	for w, d := range b.dirty {
		if d {
			b.flushes++
			b.dirty[w] = false
		}
	}
	set := addr >> (b.offBits & 31) & b.setMask
	b.valid, b.set = true, set
	for w := range b.tags {
		// Loads read every way in parallel, so all resident lines latch
		// into the buffer for free; a store only delivers its own line.
		// Every other way is cleared, an invalid one too: what it held
		// belonged to the previous set.
		t, ok := b.c.TagAt(set, w)
		b.lineOK[w] = ok && (!store || w == way)
		if b.lineOK[w] {
			b.tags[w] = t
			b.latches++
		}
	}
}

// Counts writes the buffer's array and buffer activity into s, whose
// access mix and cache outcome the host has filled. A buffer hit activates
// no tag or way; a buffer miss is a conventional access (every tag way,
// every data way for a load, one way write for a store and one for a
// refill) plus one way write per flushed line.
func (b *SetBuffer) Counts(s *stats.Counters) {
	ways := uint64(len(b.tags))
	s.TagReads = ways * (s.Accesses - b.hits)
	s.WayReads = ways * (s.Loads - (b.hits - b.storeHits))
	s.WayWrites = b.flushes + s.Misses + s.Stores - b.storeHits
	s.SetBufReads = s.Accesses // the set-index comparator fires on every access
	s.SetBufHits = b.hits
	s.SetBufWrites = b.storeHits + b.latches
}

// SetBufferD is the set buffer of [14] over its own cache, the SetBuffer
// rule in front of a conventional D-cache: a buffer hit touches the cache's
// line, a buffer miss runs a conventional access and re-latches.
type SetBufferD struct {
	Cache *cache.Cache
	Stats *stats.Counters

	buf *SetBuffer
}

var _ trace.DataSink = (*SetBufferD)(nil)

// OnDataBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer.
func (b *SetBufferD) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		b.access(&evs[i])
	}
	b.buf.Counts(b.Stats)
}

// NewSetBufferD builds the [14] controller.
func NewSetBufferD(geo cache.Config) *SetBufferD {
	c := cache.New(geo)
	return &SetBufferD{Cache: c, Stats: &stats.Counters{}, buf: NewSetBuffer(c)}
}

// access serves one access from the buffer or the cache, counting its
// outcome.
func (b *SetBufferD) access(ev *trace.DataEvent) {
	s := b.Stats
	s.Accesses++
	if ev.Store {
		s.Stores++
	} else {
		s.Loads++
	}
	if w, ok := b.buf.serve(ev.Addr, ev.Store); ok {
		s.Hits++
		b.Cache.Touch(ev.Addr, w)
		if ev.Store {
			b.Cache.MarkDirty(ev.Addr, w)
		}
		return
	}
	way, hit, evc := b.Cache.Access(ev.Addr, ev.Store)
	if hit {
		s.Hits++
	} else {
		s.Misses++
		s.Refills++
		if evc.Dirty {
			s.WriteBacks++
		}
	}
	b.buf.relatch(ev.Addr, ev.Store, way)
}
