package core

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// DLineBufferController is the combination the paper's conclusion names as
// ongoing work: a single line buffer in front of the way-memoized D-cache.
// Accesses that stay within the most recently touched line are served from
// the buffer (no tag, no way, no MAB activity — the MAB stays clock-gated);
// everything else follows the normal MAB path and re-latches the buffer.
// Unlike Su & Despain's stand-alone line buffer [13], no extra cycle is
// charged on a buffer miss: the buffer is probed in parallel with the MAB,
// which already produces its answer inside the address-generation cycle.
type DLineBufferController struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters

	bufValid bool
	bufLine  uint32
	bufWay   int
	bufDirty bool
}

var (
	_ trace.DataSink      = (*DLineBufferController)(nil)
	_ trace.DataBatchSink = (*DLineBufferController)(nil)
)

// OnDataBatch processes one block of accesses with direct calls on the
// concrete controller, walking the block by pointer (see
// IController.OnFetchBatch).
func (d *DLineBufferController) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		d.access(&evs[i])
	}
}

// NewDLineBufferController builds the combined controller.
func NewDLineBufferController(geo cache.Config, mcfg Config) *DLineBufferController {
	c := cache.New(geo)
	m := New(mcfg, geo)
	d := &DLineBufferController{Cache: c, MAB: m, Stats: &stats.Counters{}}
	c.OnEvict = func(ev cache.Eviction) {
		if mcfg.Consistency == PolicyEvictInvalidate {
			m.OnEviction(ev)
		}
		if d.bufValid && geo.Set(d.bufLine) == ev.Set && geo.Tag(d.bufLine) == ev.Tag {
			d.bufValid, d.bufDirty = false, false
		}
	}
	return d
}

// OnData serves the access from the buffer, the MAB, or the full path.
func (d *DLineBufferController) OnData(ev trace.DataEvent) { d.access(&ev) }

func (d *DLineBufferController) access(ev *trace.DataEvent) {
	s := d.Stats
	geo := d.Cache.Config()
	line := geo.LineAddr(ev.Addr)
	s.Accesses++
	if ev.Store {
		s.Stores++
	} else {
		s.Loads++
	}
	s.BufReads++
	if d.bufValid && line == d.bufLine {
		s.BufHits++
		s.Hits++
		d.Cache.Touch(ev.Addr, d.bufWay)
		if ev.Store {
			s.BufWrites++
			d.bufDirty = true
			d.Cache.MarkDirty(ev.Addr, d.bufWay)
		}
		return
	}
	// Buffer miss: flush a dirty buffered line, then the MAB path.
	if d.bufValid && d.bufDirty {
		s.WayWrites++
		d.bufDirty = false
	}
	way := d.mabAccess(ev)
	d.bufValid, d.bufLine, d.bufWay = true, line, way
	d.bufDirty = ev.Store
	s.BufWrites++
}

// mabAccess is the DController access path, returning the final way.
func (d *DLineBufferController) mabAccess(ev *trace.DataEvent) int {
	s := d.Stats
	if !d.MAB.InRange(ev.Disp) {
		s.MABBypasses++
		d.MAB.OnBypass()
		return d.fullAccess(ev)
	}
	s.MABLookups++
	if mabWay := d.MAB.probeKey(d.MAB.key(ev.Base, ev.Disp)); mabWay >= 0 {
		if d.Cache.Present(ev.Addr, mabWay) {
			s.MABHits++
			s.Hits++
			d.Cache.Touch(ev.Addr, mabWay)
			if ev.Store {
				s.WayWrites++
				d.Cache.MarkDirty(ev.Addr, mabWay)
			} else {
				s.WayReads++
			}
			return mabWay
		}
		// A violation: the update below overwrites the stale pair.
		s.Violations++
	}
	s.MABMisses++
	way := d.fullAccess(ev)
	d.MAB.Update(ev.Base, ev.Disp, way)
	s.MABUpdates++
	return way
}

func (d *DLineBufferController) fullAccess(ev *trace.DataEvent) int {
	s, c := d.Stats, d.Cache
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
