// Package stats holds the access counters shared by every cache-controller
// technique in the repository. The counters are the inputs to the paper's
// power equation (1):
//
//	P = E_way·N_way + E_tag·N_tag + P_MAB
//
// so the controllers count tag-array reads and data-way reads/writes exactly
// as the hardware would issue them.
package stats

// Counters accumulates events for one cache (I or D) under one technique.
type Counters struct {
	// Access mix.
	Accesses uint64
	Loads    uint64
	Stores   uint64

	// Cache outcome.
	Hits       uint64
	Misses     uint64
	Refills    uint64
	WriteBacks uint64

	// Array activity (the paper's N_tag and N_way).
	TagReads  uint64 // single tag-way reads (an access touching both tag ways adds 2)
	WayReads  uint64 // single data-way reads
	WayWrites uint64 // single data-way writes (stores, refill line writes count 1)

	// MAB activity.
	MABLookups  uint64 // cycles the MAB was active (clock-gated otherwise)
	MABHits     uint64
	MABMisses   uint64
	MABBypasses uint64 // large displacement or indirect jump
	MABUpdates  uint64

	// Violations counts MAB hits whose memoized way no longer held the line
	// (possible only under the pure paper consistency rules, core.PolicyPaper;
	// see ARCHITECTURE.md, "One cache per grid point").
	Violations uint64

	// Instruction-flow classification (I-cache only), indexed by
	// trace.FlowCase.
	Flow [4]uint64

	// Case1Skips counts intra-line sequential fetches satisfied with no tag
	// access (the Panwar [4] optimization, also part of the paper's scheme).
	Case1Skips uint64

	// Set-buffer activity (baseline [14]).
	SetBufHits   uint64
	SetBufReads  uint64
	SetBufWrites uint64

	// Line/filter-buffer activity (extensions).
	BufHits   uint64
	BufReads  uint64
	BufWrites uint64

	// ExtraCycles counts performance-penalty cycles added by techniques that
	// are not penalty-free (filter cache, way prediction, two-phase).
	ExtraCycles uint64
}

// TagsPerAccess returns average tag reads per cache access.
func (c *Counters) TagsPerAccess() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.TagReads) / float64(c.Accesses)
}

// WaysPerAccess returns average data-way activations (reads+writes) per
// access.
func (c *Counters) WaysPerAccess() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.WayReads+c.WayWrites) / float64(c.Accesses)
}

// HitRate returns the cache hit rate.
func (c *Counters) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// MABHitRate returns hits over lookups (excluding bypasses).
func (c *Counters) MABHitRate() float64 {
	if c.MABLookups == 0 {
		return 0
	}
	return float64(c.MABHits) / float64(c.MABLookups)
}

// Add accumulates o into c (used to aggregate across benchmark phases).
func (c *Counters) Add(o *Counters) {
	c.Accesses += o.Accesses
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Refills += o.Refills
	c.WriteBacks += o.WriteBacks
	c.TagReads += o.TagReads
	c.WayReads += o.WayReads
	c.WayWrites += o.WayWrites
	c.MABLookups += o.MABLookups
	c.MABHits += o.MABHits
	c.MABMisses += o.MABMisses
	c.MABBypasses += o.MABBypasses
	c.MABUpdates += o.MABUpdates
	c.Violations += o.Violations
	for i := range c.Flow {
		c.Flow[i] += o.Flow[i]
	}
	c.Case1Skips += o.Case1Skips
	c.SetBufHits += o.SetBufHits
	c.SetBufReads += o.SetBufReads
	c.SetBufWrites += o.SetBufWrites
	c.BufHits += o.BufHits
	c.BufReads += o.BufReads
	c.BufWrites += o.BufWrites
	c.ExtraCycles += o.ExtraCycles
}
