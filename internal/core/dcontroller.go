package core

import (
	"waymemo/internal/baseline"
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
//
// One controller serves any number of MAB sizes over one cache, one Lane
// each (see Lane), and counts the conventional baseline on the same
// stream alongside. The set buffer of [14] can observe the same cache
// (ObserveSetBuffer).
type DController struct {
	Cache *cache.Cache
	// Stats is the first lane's: for a controller built by
	// NewDController, the whole technique.
	Stats *stats.Counters
	// Baseline holds the counters of a conventional access to every event
	// (baseline.OriginalD's), kept up to date like the lanes'.
	Baseline *stats.Counters
	Lanes    []Lane

	ls   laneSet
	ways uint64

	setBuf      *baseline.SetBuffer // nil until ObserveSetBuffer
	setBufStats *stats.Counters
}

var _ trace.DataSink = (*DController)(nil)

// NewDController builds a cache plus MAB pair with the consistency policy
// wiring requested in mcfg: a one-lane controller.
func NewDController(geo cache.Config, mcfg Config) *DController {
	return NewDLanes(geo, []Config{mcfg})
}

// NewDLanes builds a controller with one cache and one lane per MAB
// configuration, in order; each lane's counters are those of a
// NewDController of its configuration fed the same stream.
func NewDLanes(geo cache.Config, mcfgs []Config) *DController {
	d := &DController{Baseline: &stats.Counters{}, ls: newLaneSet(geo, mcfgs), ways: uint64(geo.Ways)}
	d.Cache, d.Lanes = d.ls.cache, d.ls.lanes
	d.Stats = d.Lanes[0].Stats
	return d
}

// ObserveSetBuffer attaches the set buffer of [14] (baseline.SetBuffer)
// to d's cache and returns its counters, which equal those of a
// baseline.SetBufferD fed the same stream. Call it before the first event;
// a second call returns the same counters.
func (d *DController) ObserveSetBuffer() *stats.Counters {
	if d.setBuf == nil {
		d.setBuf, d.setBufStats = baseline.NewSetBuffer(d.Cache), &stats.Counters{}
	}
	return d.setBufStats
}

// OnDataBatch processes one block of accesses with direct calls on the
// concrete controller, walking the block by pointer (see
// IController.OnFetchBatch). Every data access has a base+displacement
// form; an out-of-range displacement still makes every lane bypass.
//
// The set buffer observes each access once the lanes have settled it,
// reading the set as the access left it; the lanes never read the
// buffer. A controller without one runs the loop without the call.
func (d *DController) OnDataBatch(evs []trace.DataEvent) {
	if sb := d.setBuf; sb != nil {
		for i := range evs {
			ev := &evs[i]
			sb.Observe(ev.Addr, ev.Store, d.ls.access(ev.Addr, ev.Base, ev.Disp, ev.Store, true))
		}
	} else {
		for i := range evs {
			ev := &evs[i]
			d.ls.access(ev.Addr, ev.Base, ev.Disp, ev.Store, true)
		}
	}
	d.sync()
}

// sync derives every technique's counters from the shared counts and the
// lanes' and the set buffer's own.
func (d *DController) sync() {
	n, ways := &d.ls.n, d.ways
	d.ls.fold()
	n.dataBaseline(d.Baseline, ways)
	for k := range d.Lanes {
		l := &d.Lanes[k]
		n.dataLane(l.Stats, ways, l.laneCounts)
	}
	if s := d.setBufStats; s != nil {
		n.outcome(s)
		d.setBuf.Counts(s)
	}
}

// dataBaseline writes into b the counters of a conventional data cache of
// the given ways: every access reads every tag way and, for a load, every
// data way; a store writes one way through the write-back buffer and a
// refill one more.
func (n *shared) dataBaseline(b *stats.Counters, ways uint64) {
	n.outcome(b)
	b.TagReads = ways * n.accesses
	b.WayReads = ways * (n.accesses - n.stores)
	b.WayWrites = n.stores + n.misses
}

// dataLane writes into s the counters of a data-cache MAB lane whose
// verified hits are c: a verified hit reads no tag and one way, every
// other access is conventional.
func (n *shared) dataLane(s *stats.Counters, ways uint64, c laneCounts) {
	n.outcome(s)
	loads, loadHits := n.accesses-n.stores, c.hits-c.storeHits
	s.TagReads = ways * (n.accesses - c.hits)
	s.WayReads = ways*(loads-loadHits) + loadHits
	s.WayWrites = n.stores + n.misses
	c.mabCounts(s, n.bypasses, n.accesses-n.bypasses)
}
