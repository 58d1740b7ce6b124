package baseline

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// This file models the remaining related-work techniques of Section 2,
// used by the ablation experiments:
//
//   - FilterCacheD [6]: a tiny L0 cache in front of L1; saves energy on L0
//     hits but costs one cycle per L0 miss.
//   - TwoPhaseD [8]: tags first, then exactly one data way; saves way
//     energy on every hit but serializes the access (performance loss).
//   - WayPredictI [9]: MRU-way prediction; a misprediction re-probes all
//     ways and costs an extra cycle.
//   - MaLinksI [11]: way memoization with per-line sequential and branch
//     links (two extra bits read per access, link invalidation on refill).
//   - LineBufferD [13]: a single line buffer in front of the cache (an
//     extra cycle on buffer misses, per Su & Despain).

// FilterCacheD is the L0 filter cache of Kin et al. [6].
type FilterCacheD struct {
	L0    *cache.Cache
	L1    *cache.Cache
	Stats *stats.Counters
}

var _ trace.DataSink = (*FilterCacheD)(nil)

// OnDataBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer — the devirtualized inner loop
// of batched delivery, live and replayed (see core.IController.OnFetchBatch).
func (f *FilterCacheD) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		f.access(&evs[i])
	}
}

// NewFilterCacheD builds a filter cache (l0 geometry) over an L1.
func NewFilterCacheD(l0, l1 cache.Config) *FilterCacheD {
	return &FilterCacheD{L0: cache.New(l0), L1: cache.New(l1), Stats: &stats.Counters{}}
}

// access serves the access from L0 when possible; an L0 miss costs one
// extra cycle (ExtraCycles) and a full L1 access.
func (f *FilterCacheD) access(ev *trace.DataEvent) {
	s := f.Stats
	s.Accesses++
	if ev.Store {
		s.Stores++
	} else {
		s.Loads++
	}
	// The L0 is direct-mapped-small: model its access as a buffer access.
	s.BufReads++
	if way, hit := f.L0.Lookup(ev.Addr); hit {
		s.BufHits++
		s.Hits++
		f.L0.Touch(ev.Addr, way)
		if ev.Store {
			f.L0.MarkDirty(ev.Addr, way)
			s.BufWrites++
		}
		return
	}
	// L0 miss: one penalty cycle, then the L1 access (conventional), then
	// the line is filled into L0.
	s.ExtraCycles++
	ways := uint64(f.L1.Config().Ways)
	s.TagReads += ways
	way, hit := f.L1.Lookup(ev.Addr)
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
		way, evc = f.L1.Fill(ev.Addr)
		s.Refills++
		s.WayWrites++
		if evc.Dirty {
			s.WriteBacks++
		}
	}
	f.L1.Touch(ev.Addr, way)
	if ev.Store {
		s.WayWrites++
		f.L1.MarkDirty(ev.Addr, way)
	}
	_, l0ev := f.L0.Fill(ev.Addr)
	s.BufWrites++
	if l0ev.Dirty {
		// Dirty L0 victim writes through to its L1 way.
		s.WayWrites++
	}
	if ev.Store {
		f.L0.MarkDirty(ev.Addr, 0)
	}
}

// TwoPhaseD is the phased cache of Hasegawa et al. [8]: phase one reads all
// tags, phase two activates only the matching data way. Every access takes
// an extra phase (the paper's cited performance loss).
type TwoPhaseD struct {
	Cache *cache.Cache
	Stats *stats.Counters
}

var _ trace.DataSink = (*TwoPhaseD)(nil)

// OnDataBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer.
func (t *TwoPhaseD) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		t.access(&evs[i])
	}
}

// NewTwoPhaseD builds the phased controller.
func NewTwoPhaseD(geo cache.Config) *TwoPhaseD {
	return &TwoPhaseD{Cache: cache.New(geo), Stats: &stats.Counters{}}
}

// access performs a phased access.
func (t *TwoPhaseD) access(ev *trace.DataEvent) {
	s := t.Stats
	s.Accesses++
	if ev.Store {
		s.Stores++
	} else {
		s.Loads++
	}
	s.ExtraCycles++ // serialized tag phase
	s.TagReads += uint64(t.Cache.Config().Ways)
	way, hit := t.Cache.Lookup(ev.Addr)
	if hit {
		s.Hits++
		if !ev.Store {
			s.WayReads++ // single way in phase two
		}
	} else {
		s.Misses++
		var evc cache.Eviction
		way, evc = t.Cache.Fill(ev.Addr)
		s.Refills++
		s.WayWrites++
		if evc.Dirty {
			s.WriteBacks++
		}
	}
	t.Cache.Touch(ev.Addr, way)
	if ev.Store {
		s.WayWrites++
		t.Cache.MarkDirty(ev.Addr, way)
	}
}

// WayPredictI is the MRU way-predicting I-cache of Inoue et al. [9]: probe
// the predicted way's tag and data only; on a misprediction, re-probe all
// ways with an extra cycle.
type WayPredictI struct {
	Cache *cache.Cache
	Stats *stats.Counters
	mru   []int32 // per-set predicted way
}

var _ trace.FetchSink = (*WayPredictI)(nil)

// OnFetchBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer.
func (w *WayPredictI) OnFetchBatch(evs []trace.FetchEvent) {
	for i := range evs {
		w.fetch(&evs[i])
	}
}

// NewWayPredictI builds the way-predicting controller.
func NewWayPredictI(geo cache.Config) *WayPredictI {
	return &WayPredictI{
		Cache: cache.New(geo),
		Stats: &stats.Counters{},
		mru:   make([]int32, geo.Sets),
	}
}

// fetch probes the predicted way first.
func (w *WayPredictI) fetch(ev *trace.FetchEvent) {
	s := w.Stats
	s.Accesses++
	s.Loads++
	geo := w.Cache.Config()
	if !ev.First {
		s.Flow[trace.Classify(*ev, uint32(geo.LineBytes))]++
	}
	set := geo.Set(ev.Addr)
	pred := int(w.mru[set])
	s.TagReads++ // predicted way's tag
	s.WayReads++ // predicted way's data, in parallel
	if w.Cache.Present(ev.Addr, pred) {
		s.Hits++
		s.MABHits++ // reused counter: prediction hits
		w.Cache.Touch(ev.Addr, pred)
		return
	}
	// Misprediction: extra cycle, all remaining ways probed.
	s.MABMisses++
	s.ExtraCycles++
	s.TagReads += uint64(geo.Ways - 1)
	s.WayReads += uint64(geo.Ways - 1)
	way, hit := w.Cache.Lookup(ev.Addr)
	if hit {
		s.Hits++
	} else {
		s.Misses++
		var evc cache.Eviction
		way, evc = w.Cache.Fill(ev.Addr)
		s.Refills++
		s.WayWrites++
		if evc.Dirty {
			s.WriteBacks++
		}
	}
	w.Cache.Touch(ev.Addr, way)
	w.mru[set] = int32(way)
}

// MaLinksI is the link-based way memoization of Ma, Zhang & Asanović [11]:
// each cache line carries a sequential link (valid bit + way) to the line
// holding the next-sequential instructions, and branch links are kept in a
// small table keyed by the branch source line. Links are invalidated on
// refill. Reading the two link bits costs a little extra energy per access
// (modelled as BufReads).
type MaLinksI struct {
	Cache *cache.Cache
	Stats *stats.Counters

	seqValid []bool
	seqWay   []int32
	// branch links: source line index -> (target way), invalidated with
	// the target line's set when any line of that set is refilled.
	brValid  map[uint32]int32
	prevWay  int
	prevIdx  int
	havePrev bool
}

var _ trace.FetchSink = (*MaLinksI)(nil)

// OnFetchBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer.
func (m *MaLinksI) OnFetchBatch(evs []trace.FetchEvent) {
	for i := range evs {
		m.fetch(&evs[i])
	}
}

// NewMaLinksI builds the link-based controller.
func NewMaLinksI(geo cache.Config) *MaLinksI {
	n := geo.Sets * geo.Ways
	m := &MaLinksI{
		Cache:    cache.New(geo),
		Stats:    &stats.Counters{},
		seqValid: make([]bool, n),
		seqWay:   make([]int32, n),
		brValid:  make(map[uint32]int32),
	}
	m.Cache.OnEvict = func(ev cache.Eviction) {
		// Ma et al. require a mechanism that invalidates links on a line
		// replacement (the overhead our paper's §2 calls out). The evicted
		// frame's outgoing sequential link dies here; branch links are
		// verified lazily at use and dropped when stale.
		m.seqValid[int(ev.Set)*geo.Ways+ev.Way] = false
	}
	return m
}

func (m *MaLinksI) frame(addr uint32) int {
	geo := m.Cache.Config()
	way, hit := m.Cache.Lookup(addr)
	if !hit {
		return -1
	}
	return int(geo.Set(addr))*geo.Ways + way
}

// fetch follows sequential or branch links when valid.
func (m *MaLinksI) fetch(ev *trace.FetchEvent) {
	s := m.Stats
	s.Accesses++
	s.Loads++
	geo := m.Cache.Config()
	flow := trace.Classify(*ev, uint32(geo.LineBytes))
	if !ev.First {
		s.Flow[flow]++
	}
	s.BufReads++ // the link bits read alongside each access
	if !ev.First && m.havePrev {
		switch flow {
		case trace.IntraSeq, trace.IntraNonSeq:
			// Same line: way known, no tag check (line cannot have left).
			s.Case1Skips++
			s.Hits++
			s.WayReads++
			m.Cache.Touch(ev.Addr, m.prevWay)
			return
		case trace.InterSeq:
			if m.seqValid[m.prevIdx] {
				way := int(m.seqWay[m.prevIdx])
				if m.Cache.Present(ev.Addr, way) {
					s.MABHits++ // link hits
					s.Hits++
					s.WayReads++
					m.Cache.Touch(ev.Addr, way)
					m.prevWay, m.prevIdx = way, m.frame(ev.Addr)
					return
				}
				m.seqValid[m.prevIdx] = false
			}
		case trace.InterNonSeq:
			lineKey := ev.Base >> uint(geo.OffsetBits())
			if way, ok := m.brValid[lineKey]; ok {
				if m.Cache.Present(ev.Addr, int(way)) {
					s.MABHits++
					s.Hits++
					s.WayReads++
					m.Cache.Touch(ev.Addr, int(way))
					m.prevWay, m.prevIdx = int(way), m.frame(ev.Addr)
					return
				}
				delete(m.brValid, lineKey)
			}
		}
	}
	// Full fetch, then install the appropriate link.
	s.MABMisses++
	way := fullFetch(m.Cache, s, ev)
	if m.havePrev && !ev.First {
		switch flow {
		case trace.InterSeq:
			if m.prevIdx >= 0 {
				m.seqValid[m.prevIdx] = true
				m.seqWay[m.prevIdx] = int32(way)
				s.BufWrites++ // link update
			}
		case trace.InterNonSeq:
			if ev.Kind == trace.KindBranch {
				m.brValid[ev.Base>>uint(geo.OffsetBits())] = int32(way)
				s.BufWrites++
			}
		}
	}
	m.prevWay, m.prevIdx = way, m.frame(ev.Addr)
	m.havePrev = true
}

// LineBufferD is the single line buffer of Su & Despain [13]: accesses to
// the most recently touched line are served from the buffer; a buffer miss
// costs one extra cycle before the main cache access.
type LineBufferD struct {
	Cache *cache.Cache
	Stats *stats.Counters

	bufValid bool
	bufLine  uint32
	bufDirty bool
	bufWay   int
}

var _ trace.DataSink = (*LineBufferD)(nil)

// OnDataBatch processes one block with direct calls on the concrete
// controller, walking the block by pointer.
func (b *LineBufferD) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		b.access(&evs[i])
	}
}

// NewLineBufferD builds the line-buffer controller.
func NewLineBufferD(geo cache.Config) *LineBufferD {
	b := &LineBufferD{Cache: cache.New(geo), Stats: &stats.Counters{}}
	b.Cache.OnEvict = func(ev cache.Eviction) {
		if b.bufValid && b.Cache.Config().Set(b.bufLine) == ev.Set &&
			b.Cache.Config().Tag(b.bufLine) == ev.Tag {
			b.bufValid = false
			b.bufDirty = false
		}
	}
	return b
}

// access serves same-line accesses from the buffer.
func (b *LineBufferD) access(ev *trace.DataEvent) {
	s := b.Stats
	geo := b.Cache.Config()
	line := geo.LineAddr(ev.Addr)
	s.Accesses++
	if ev.Store {
		s.Stores++
	} else {
		s.Loads++
	}
	s.BufReads++
	if b.bufValid && line == b.bufLine {
		s.BufHits++
		s.Hits++
		b.Cache.Touch(ev.Addr, b.bufWay)
		if ev.Store {
			s.BufWrites++
			b.bufDirty = true
			b.Cache.MarkDirty(ev.Addr, b.bufWay)
		}
		return
	}
	// Buffer miss: extra cycle ([13]'s documented performance cost), flush
	// the dirty buffered line, then a conventional access and re-latch.
	s.ExtraCycles++
	if b.bufValid && b.bufDirty {
		s.WayWrites++
		b.bufDirty = false
	}
	way := fullDataAccess(b.Cache, s, ev)
	b.bufValid = true
	b.bufLine = line
	b.bufWay = way
	b.bufDirty = ev.Store
	s.BufWrites++
	// Counter fixup: fullDataAccess already counted this access.
	s.Accesses--
	if ev.Store {
		s.Stores--
	} else {
		s.Loads--
	}
}
