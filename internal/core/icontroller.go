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
//
// Like DController, one controller serves any number of MAB sizes over one
// cache and counts the conventional baseline alongside. The case-1 skip,
// the flow class and the previous way are the same for every lane, so they
// are decided once per fetch. They are all of approach [4], whose counters
// the controller can derive as well (ObserveApproach4).
type IController struct {
	Cache *cache.Cache
	// Stats is the first lane's: for a controller built by
	// NewIController, the whole technique.
	Stats *stats.Counters
	// Baseline holds the counters of a conventional fetch of every packet
	// (baseline.OriginalI's), kept up to date like the lanes'.
	Baseline *stats.Counters
	Lanes    []Lane

	ls        laneSet
	ways      uint64
	lineBytes uint32

	prevWay  int
	havePrev bool

	approach4 *stats.Counters // nil until ObserveApproach4
}

var _ trace.FetchSink = (*IController)(nil)

// NewIController builds the I-cache controller with its MAB: a one-lane
// controller.
func NewIController(geo cache.Config, mcfg Config) *IController {
	return NewILanes(geo, []Config{mcfg})
}

// NewILanes builds an I-cache controller with one cache and one lane per
// MAB configuration, in order; each lane's counters are those of a
// NewIController of its configuration fed the same stream.
func NewILanes(geo cache.Config, mcfgs []Config) *IController {
	ic := &IController{
		Baseline:  &stats.Counters{},
		ls:        newLaneSet(geo, mcfgs),
		ways:      uint64(geo.Ways),
		lineBytes: uint32(geo.LineBytes),
	}
	ic.Cache, ic.Lanes = ic.ls.cache, ic.ls.lanes
	ic.Stats = ic.Lanes[0].Stats
	return ic
}

// ObserveApproach4 returns counters that equal those of a
// baseline.Approach4I fed the same stream. Approach [4] is the case-1 rule
// every lane already applies, with a conventional fetch for everything
// else, so the counters are derived from the shared counts at no cost per
// fetch. Call it before the first event; a second call returns the same
// counters.
func (ic *IController) ObserveApproach4() *stats.Counters {
	if ic.approach4 == nil {
		ic.approach4 = &stats.Counters{}
	}
	return ic.approach4
}

// OnFetchBatch processes one block of fetch runs. The loop dispatches
// on the concrete controller — no per-event interface call — which is what
// makes the batched fan-out replay's inner loop a plain slice walk. It
// walks the block by pointer: passed by value, the event is spilled to
// the stack as 4-byte fields and read back by trace.Classify as one 8-byte
// word, a store-forwarding stall that took about 30% of the per-fetch time
// in a CPU profile.
//
// A run's head is classified like any fetch. Its fall-through packets are
// split at line boundaries: a packet that enters a new line is the
// sequential line crossing above, and the packets after it in the same
// line are case 1, counted in one step with one Touch of the line.
func (ic *IController) OnFetchBatch(evs []trace.FetchEvent) {
	n := &ic.ls.n
	for i := range evs {
		ev := &evs[i]
		if !ev.First {
			flow := trace.Classify(*ev, ic.lineBytes)
			n.flow[flow]++
			if flow == trace.IntraSeq && ic.havePrev {
				// Case 1: the line was fetched last cycle; its way is known
				// and it cannot have been evicted in between.
				n.accesses++
				n.case1++
				n.hits++
				ic.ls.cache.Touch(ev.Addr, ic.prevWay)
				if ev.Run != 0 {
					ic.run(ev)
				}
				continue
			}
		}
		// A first or indirect fetch has no base+displacement form: every
		// lane bypasses, as for a branch offset beyond the low adder's
		// reach.
		tracked := !ev.First && ev.Kind != trace.KindIndirect
		ic.prevWay = ic.ls.access(ev.Addr, ev.Base, ev.Disp, false, tracked)
		ic.havePrev = true
		if ev.Run != 0 {
			ic.run(ev)
		}
	}
	ic.sync()
}

// run counts the fall-through packets of ev, whose head is counted.
func (ic *IController) run(ev *trace.FetchEvent) {
	n, stride := &ic.ls.n, uint32(1)<<ev.Shift
	for a, left := ev.Addr, uint32(ev.Run); ; {
		if c := min(sameLine(a, ev.Shift, ic.lineBytes), left); c > 0 {
			n.flow[trace.IntraSeq] += uint64(c)
			n.accesses += uint64(c)
			n.case1 += uint64(c)
			n.hits += uint64(c)
			a += c << ev.Shift
			ic.ls.cache.Touch(a, ic.prevWay)
			if left -= c; left == 0 {
				return
			}
		}
		n.flow[trace.InterSeq]++
		ic.prevWay = ic.ls.access(a+stride, a, int32(stride), false, true)
		a += stride
		if left--; left == 0 {
			return
		}
	}
}

// sameLine returns how many packets of 1<<shift bytes after the one at a
// lie in a's line of lineBytes bytes: none when a packet is no smaller
// than the line.
func sameLine(a uint32, shift uint8, lineBytes uint32) uint32 {
	return (lineBytes - 1 - a&(lineBytes-1)) >> shift
}

// sync derives every technique's counters from the shared counts and the
// lanes' own.
func (ic *IController) sync() {
	n, ways := &ic.ls.n, ic.ways
	ic.ls.fold()
	n.fetchBaseline(ic.Baseline, ways)
	for k := range ic.Lanes {
		l := &ic.Lanes[k]
		n.fetchLane(l.Stats, ways, l.laneCounts)
	}
	if s := ic.approach4; s != nil {
		n.case1Counts(s, ways, 0) // approach [4] is a lane that never hits
	}
}

// fetchBaseline writes into b the counters of a conventional instruction
// cache of the given ways: every fetch reads every tag and data way and a
// refill writes one way.
func (n *shared) fetchBaseline(b *stats.Counters, ways uint64) {
	n.outcome(b)
	b.Flow = n.flow
	b.TagReads = ways * n.accesses
	b.WayReads = ways * n.accesses
	b.WayWrites = n.misses
}

// fetchLane writes into s the counters of an instruction-cache MAB lane
// whose verified hits are c.
func (n *shared) fetchLane(s *stats.Counters, ways uint64, c laneCounts) {
	n.case1Counts(s, ways, c.hits)
	c.mabCounts(s, n.bypasses, n.accesses-n.case1-n.bypasses)
}

// case1Counts writes into s the counters of a technique that applies the
// case-1 rule and serves hits more fetches with one way read and no tag: a
// case-1 skip or a verified MAB hit reads no tag and one way.
func (n *shared) case1Counts(s *stats.Counters, ways, hits uint64) {
	n.outcome(s)
	s.Flow = n.flow
	s.Case1Skips = n.case1
	full := n.accesses - n.case1 - hits
	s.TagReads = ways * full
	s.WayReads = ways*full + n.case1 + hits
	s.WayWrites = n.misses
}
