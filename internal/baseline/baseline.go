// Package baseline implements the cache-access techniques the paper compares
// against (and the related work used for ablation studies):
//
//   - OriginalD / OriginalI: conventional set-associative access — every
//     access reads all tag ways; loads read all data ways in parallel,
//     stores write the single matching way via the write-back buffer.
//   - Approach4I: Panwar & Rennels [4], intra-cache-line sequential-flow way
//     memoization for instruction caches (the paper's I-cache baseline).
//   - SetBufferD: Yang, Yu & Zhang [14], the lightweight set buffer (the
//     paper's D-cache comparison).
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

var (
	_ trace.DataSink      = (*OriginalD)(nil)
	_ trace.DataBatchSink = (*OriginalD)(nil)
)

// OnDataBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer — the devirtualized inner loop
// of batched delivery, live and replayed (see core.IController.OnFetchBatch).
func (d *OriginalD) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		fullDataAccess(d.Cache, d.Stats, &evs[i])
	}
}

// NewOriginalD builds the conventional D-cache controller.
func NewOriginalD(geo cache.Config) *OriginalD {
	return &OriginalD{Cache: cache.New(geo), Stats: &stats.Counters{}}
}

// OnData performs a conventional access: all tag ways are read; loads read
// all data ways, stores write one.
func (d *OriginalD) OnData(ev trace.DataEvent) { fullDataAccess(d.Cache, d.Stats, &ev) }

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

var (
	_ trace.FetchSink      = (*OriginalI)(nil)
	_ trace.FetchBatchSink = (*OriginalI)(nil)
)

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

// OnFetch performs a conventional fetch: all tag and data ways activate.
func (i *OriginalI) OnFetch(ev trace.FetchEvent) { i.fetch(&ev) }

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

var (
	_ trace.FetchSink      = (*Approach4I)(nil)
	_ trace.FetchBatchSink = (*Approach4I)(nil)
)

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

// OnFetch applies the intra-line sequential optimization.
func (a *Approach4I) OnFetch(ev trace.FetchEvent) { a.fetch(&ev) }

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

// SetBufferD models Yang, Yu & Zhang's lightweight set buffer [14]: a
// buffer holding the lines of the most recently used set. An access to the
// buffered set whose tag matches a buffered line is served entirely from the
// buffer (no cache tag or way activates, no cycle penalty). Stores hit the
// buffer write-back style; dirty buffered lines flush to their data way when
// the buffer moves to another set.
type SetBufferD struct {
	Cache *cache.Cache
	Stats *stats.Counters

	bufValid bool
	bufSet   uint32
	tags     []uint32
	lineOK   []bool
	dirty    []bool
}

var (
	_ trace.DataSink      = (*SetBufferD)(nil)
	_ trace.DataBatchSink = (*SetBufferD)(nil)
)

// OnDataBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer.
func (b *SetBufferD) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		b.access(&evs[i])
	}
}

// NewSetBufferD builds the [14] controller.
func NewSetBufferD(geo cache.Config) *SetBufferD {
	b := &SetBufferD{
		Cache:  cache.New(geo),
		Stats:  &stats.Counters{},
		tags:   make([]uint32, geo.Ways),
		lineOK: make([]bool, geo.Ways),
		dirty:  make([]bool, geo.Ways),
	}
	// A line evicted from the buffered set must leave the buffer too.
	b.Cache.OnEvict = func(ev cache.Eviction) {
		if b.bufValid && ev.Set == b.bufSet {
			for w := range b.tags {
				if b.lineOK[w] && b.tags[w] == ev.Tag {
					b.lineOK[w] = false
					b.dirty[w] = false
				}
			}
		}
	}
	return b
}

// OnData serves the access from the set buffer when possible.
func (b *SetBufferD) OnData(ev trace.DataEvent) { b.access(&ev) }

func (b *SetBufferD) access(ev *trace.DataEvent) {
	s := b.Stats
	geo := b.Cache.Config()
	set, tag := geo.Set(ev.Addr), geo.Tag(ev.Addr)
	// The buffer's set-index comparator fires on every access.
	s.SetBufReads++
	if b.bufValid && set == b.bufSet {
		for w := range b.tags {
			if b.lineOK[w] && b.tags[w] == tag {
				s.Accesses++
				if ev.Store {
					s.Stores++
					s.SetBufWrites++
					b.dirty[w] = true
				} else {
					s.Loads++
				}
				s.SetBufHits++
				s.Hits++
				b.Cache.Touch(ev.Addr, w)
				if ev.Store {
					b.Cache.MarkDirty(ev.Addr, w)
				}
				return
			}
		}
	}
	// Buffer miss: flush dirty buffered lines to their data ways (their
	// buffered copy is newer than the array), then perform a conventional
	// access and re-latch the buffer with the accessed set.
	if b.bufValid {
		for w := range b.dirty {
			if b.dirty[w] {
				s.WayWrites++
				b.dirty[w] = false
			}
		}
	}
	way := fullDataAccess(b.Cache, s, ev)
	b.bufValid = true
	b.bufSet = set
	for w := range b.tags {
		t, ok := b.Cache.TagAt(set, w)
		// Loads read every way in parallel, so all resident lines latch
		// into the buffer for free; a store only delivers its own line.
		if ok && (!ev.Store || w == way) {
			b.tags[w] = t
			b.lineOK[w] = true
			s.SetBufWrites++
		} else if ev.Store && w != way {
			b.lineOK[w] = false
		}
		b.dirty[w] = false
	}
	return
}
