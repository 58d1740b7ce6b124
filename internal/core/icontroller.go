package core

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// IController is the way-memoized instruction-cache controller of Figure 2.
//
// Intra-line sequential fetches (case 1 of the paper's flow taxonomy) are
// satisfied with no tag access and a single way read using the previous
// fetch's way, exactly as in Panwar & Rennels [4] — the fetched line cannot
// have left the cache since the previous cycle.
//
// All other flows probe the MAB with one of its three input types:
//
//	sequential line crossing:  base = previous packet, disp = packet stride
//	taken branch/direct jump:  base = branch PC,       disp = encoded offset
//	jump to link register:     base = link value,      disp = 0
//
// Indirect jumps through other registers have no base+displacement form and
// bypass the MAB.
type IController struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters

	prevWay  int
	havePrev bool
}

var (
	_ trace.FetchSink      = (*IController)(nil)
	_ trace.FetchBatchSink = (*IController)(nil)
)

// NewIController builds the I-cache controller with its MAB.
func NewIController(geo cache.Config, mcfg Config) *IController {
	c := cache.New(geo)
	m := New(mcfg, geo)
	ic := &IController{Cache: c, MAB: m, Stats: &stats.Counters{}}
	if mcfg.Consistency == PolicyEvictInvalidate {
		c.OnEvict = m.OnEviction
	}
	return ic
}

// OnFetchBatch processes one replayed block of fetches. The loop dispatches
// on the concrete controller — no per-event interface call — which is what
// makes the batched fan-out replay's inner loop a plain slice walk. It
// hands each event over by pointer: passed by value, the event is spilled
// to the stack as 4-byte fields and read back by trace.Classify as one
// 8-byte word, a store-forwarding stall that took about 30% of the
// per-fetch time in a CPU profile.
func (ic *IController) OnFetchBatch(evs []trace.FetchEvent) {
	for i := range evs {
		ic.fetch(&evs[i])
	}
}

// OnFetch processes one packet fetch.
func (ic *IController) OnFetch(ev trace.FetchEvent) { ic.fetch(&ev) }

func (ic *IController) fetch(ev *trace.FetchEvent) {
	s := ic.Stats
	s.Accesses++
	s.Loads++
	if !ev.First {
		flow := trace.Classify(*ev, uint32(ic.Cache.Config().LineBytes))
		s.Flow[flow]++
		if flow == trace.IntraSeq && ic.havePrev {
			// Case 1: the line was fetched last cycle; its way is known and
			// it cannot have been evicted in between.
			s.Case1Skips++
			s.Hits++
			s.WayReads++
			ic.Cache.Touch(ev.Addr, ic.prevWay)
			return
		}
	}
	if ev.First || ev.Kind == trace.KindIndirect {
		s.MABBypasses++
		ic.MAB.OnBypass()
		ic.prevWay = ic.fullFetch(ev)
		ic.havePrev = true
		return
	}
	if !ic.MAB.InRange(ev.Disp) {
		// Branch offset beyond the low adder's reach.
		s.MABBypasses++
		ic.MAB.OnBypass()
		ic.prevWay = ic.fullFetch(ev)
		ic.havePrev = true
		return
	}
	s.MABLookups++
	mabWay, mabHit := ic.MAB.probeFast(ev.Base, ev.Disp)
	if mabHit {
		if ic.Cache.Present(ev.Addr, mabWay) {
			s.MABHits++
			s.Hits++
			s.WayReads++
			ic.Cache.Touch(ev.Addr, mabWay)
			ic.prevWay = mabWay
			ic.havePrev = true
			return
		}
		s.Violations++
		ic.MAB.Invalidate(ev.Base, ev.Disp)
	}
	s.MABMisses++
	way := ic.fullFetch(ev)
	ic.MAB.Update(ev.Base, ev.Disp, way)
	s.MABUpdates++
	ic.prevWay = way
	ic.havePrev = true
}

// fullFetch performs a conventional fetch (all tag ways, all data ways read
// in parallel) and returns the way holding the line.
func (ic *IController) fullFetch(ev *trace.FetchEvent) int {
	s, c := ic.Stats, ic.Cache
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
