package core

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// DController is the way-memoized data-cache controller of Figure 1: a MAB
// probed with (base register, displacement) in parallel with address
// generation. On a MAB hit the tag arrays stay dark and exactly one data way
// is activated; on a miss the access proceeds conventionally and the MAB is
// updated with the observed way.
//
// Stores model the FR-V write-back buffer (§4): even without the MAB they
// read all tag ways but write only the single matching data way.
type DController struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters
}

var (
	_ trace.DataSink      = (*DController)(nil)
	_ trace.DataBatchSink = (*DController)(nil)
)

// NewDController builds a cache plus MAB pair with the consistency policy
// wiring requested in mcfg.
func NewDController(geo cache.Config, mcfg Config) *DController {
	c := cache.New(geo)
	m := New(mcfg, geo)
	d := &DController{Cache: c, MAB: m, Stats: &stats.Counters{}}
	if mcfg.Consistency == PolicyEvictInvalidate {
		c.OnEvict = m.OnEviction
	}
	return d
}

// OnDataBatch processes one block of accesses with direct calls on the
// concrete controller, walking the block by pointer (see
// IController.OnFetchBatch).
func (d *DController) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		d.access(&evs[i])
	}
}

// OnData processes one load or store.
func (d *DController) OnData(ev trace.DataEvent) { d.access(&ev) }

func (d *DController) access(ev *trace.DataEvent) {
	s := d.Stats
	s.Accesses++
	if ev.Store {
		s.Stores++
	} else {
		s.Loads++
	}
	if !d.MAB.InRange(ev.Disp) {
		// The low adder cannot produce the tag: bypass and conservatively
		// invalidate per the configured clearing rule.
		s.MABBypasses++
		d.MAB.OnBypass()
		d.fullAccess(ev)
		return
	}
	s.MABLookups++
	mabWay, mabHit := d.MAB.probeFast(ev.Base, ev.Disp)
	if mabHit {
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
			return
		}
		// The memoized line was displaced: only reachable under
		// PolicyPaper. Hardware would return the wrong way's data; the
		// simulator counts it and recovers with a full access.
		s.Violations++
		d.MAB.Invalidate(ev.Base, ev.Disp)
	}
	s.MABMisses++
	way := d.fullAccess(ev)
	d.MAB.Update(ev.Base, ev.Disp, way)
	s.MABUpdates++
}

// fullAccess performs a conventional access and returns the way that ends up
// holding the line.
func (d *DController) fullAccess(ev *trace.DataEvent) int {
	s, c := d.Stats, d.Cache
	ways := uint64(c.Config().Ways)
	s.TagReads += ways
	way, hit := c.Lookup(ev.Addr)
	if hit {
		s.Hits++
		if !ev.Store {
			s.WayReads += ways // all data ways are read in parallel with tag compare
		}
	} else {
		s.Misses++
		if !ev.Store {
			s.WayReads += ways // the parallel probe still burned all ways
		}
		var evc cache.Eviction
		way, evc = c.Fill(ev.Addr)
		s.Refills++
		s.WayWrites++ // line install into the selected way
		if evc.Dirty {
			s.WriteBacks++
		}
	}
	c.Touch(ev.Addr, way)
	if ev.Store {
		s.WayWrites++ // single-way store via the write-back buffer
		c.MarkDirty(ev.Addr, way)
	}
	return way
}
