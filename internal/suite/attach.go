package suite

import (
	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// Attach instantiates techs for geo and returns the sink pairs that feed
// them and one TechResult per technique, in techs order. It is how Run
// attaches a benchmark's techniques and how explore attaches a grid
// point's.
//
// Way memoization changes which arrays an access reads, never hits, misses
// or evictions (see core.Lane), and neither do the set buffer and approach
// [4]. So the techniques of one domain that set Technique.Shares read one
// controller, core.NewDLanes or core.NewILanes: its Baseline serves every
// Baseline member, it has one lane per Lane member, in techs order (two
// IDs with one MAB configuration get a lane each), and its observer
// serves every SetBuffer or Approach4 member. The domain then runs one
// cache for all of them, and the controller's sink pair takes its first
// member's place. A domain whose sharing techniques include no Lane has
// no MAB to build that controller around: each of them is instantiated
// alone, as is every technique without Shares. Members reading one part
// of one controller share one Counters.
func Attach(geo cache.Config, techs []Technique) ([]trace.SinkPair, []TechResult, error) {
	if err := geo.Validate(); err != nil {
		return nil, nil, err
	}
	var cfgs [2][]core.Config // by Domain: the lane members' configurations
	for _, t := range techs {
		if err := t.validate(); err != nil {
			return nil, nil, err
		}
		if t.Shares.Part == Lane {
			cfgs[t.Domain] = append(cfgs[t.Domain], t.Shares.MAB)
		}
	}
	var (
		pairs   = make([]trace.SinkPair, 0, len(techs))
		res     = make([]TechResult, len(techs))
		base    [2]*stats.Counters // by Domain, once its controller is built
		lanes   [2][]core.Lane
		observe [2]func() *stats.Counters // the domain's one observer
		next    [2]int                    // by Domain: the next lane member's lane
	)
	for i, t := range techs {
		d := t.Domain
		if t.Shares.Part == Alone || len(cfgs[d]) == 0 {
			inst, pair, err := t.Instantiate(geo)
			if err != nil {
				return nil, nil, err
			}
			pairs = append(pairs, pair)
			res[i] = TechResult{Stats: inst.Stats, Model: inst.Model}
			continue
		}
		if base[d] == nil {
			if d == Data {
				c := core.NewDLanes(geo, cfgs[d])
				pairs = append(pairs, trace.SinkPair{Data: c})
				base[d], lanes[d], observe[d] = c.Baseline, c.Lanes, c.ObserveSetBuffer
			} else {
				c := core.NewILanes(geo, cfgs[d])
				pairs = append(pairs, trace.SinkPair{Fetch: c})
				base[d], lanes[d], observe[d] = c.Baseline, c.Lanes, c.ObserveApproach4
			}
		}
		var st *stats.Counters
		switch t.Shares.Part {
		case Baseline:
			st = base[d]
		case Lane:
			st = lanes[d][next[d]].Stats
			next[d]++
		default: // validate admits only the domain's own observer
			st = observe[d]()
		}
		res[i] = TechResult{Stats: st, Model: sharedModel(geo, t.Shares)}
	}
	return pairs, res, nil
}

// AttachWays is Attach for geometries that share sets and line size and
// differ only in ways, fed a stream of fetch packets of packet bytes (the
// resolved size, never 0). It returns the sink pairs that feed them and,
// per geometry in geos order, one TechResult per technique in techs order.
//
// An LRU cache of w ways holds the w most recently used lines of each set
// for every w, and way memoization never changes what it holds, so when
// techs are one domain's baseline and MAB lanes, every lane
// PolicyEvictInvalidate, two geometries or more read one ways group,
// core.NewDWays or core.NewIWays: one pass counts every geometry, each
// level equal to the controller Attach would build for its geometry. That
// holds while every access lies in the line its base and displacement
// name (core.DWays.Exact), as every data access the simulators emit does,
// and every fetch does when a packet is no larger than the line: both are
// powers of two, so such a packet lies inside one line. Anything else — a
// technique alone, an observer, a PolicyPaper lane, whose violations
// depend on physical ways, a fetch packet wider than the line — attaches
// each geometry through Attach.
//
// exact reports, once the stream is delivered, whether a ways group's
// results hold; it is true for every stream the simulators emit, so false
// means the stream broke the plan and the results are wrong.
func AttachWays(geos []cache.Config, techs []Technique, packet uint32) (pairs []trace.SinkPair, res [][]TechResult, exact func() bool, err error) {
	res = make([][]TechResult, len(geos))
	cfgs, ok := waysLanes(geos, techs)
	if !ok || techs[0].Domain == Fetch && packet > uint32(geos[0].LineBytes) {
		for i, geo := range geos {
			p, r, err := Attach(geo, techs)
			if err != nil {
				return nil, nil, nil, err
			}
			pairs, res[i] = append(pairs, p...), r
		}
		return pairs, res, func() bool { return true }, nil
	}
	var levels []core.WayLevel
	if techs[0].Domain == Data {
		c := core.NewDWays(geos, cfgs)
		pairs, levels, exact = []trace.SinkPair{{Data: c}}, c.Levels, c.Exact
	} else {
		c := core.NewIWays(geos, cfgs)
		pairs, levels, exact = []trace.SinkPair{{Fetch: c}}, c.Levels, c.Exact
	}
	for i, lv := range levels {
		res[i] = make([]TechResult, len(techs))
		next := 0
		for j, t := range techs {
			st := lv.Baseline
			if t.Shares.Part == Lane {
				st = lv.Lanes[next]
				next++
			}
			res[i][j] = TechResult{Stats: st, Model: sharedModel(lv.Geometry, t.Shares)}
		}
	}
	return pairs, res, exact, nil
}

// waysLanes returns the lane configurations of techs in order, and
// whether geos and techs can share one ways group: two geometries or
// more, valid and of one sets and line size, and valid techniques of one
// domain, each its baseline or a PolicyEvictInvalidate lane, one lane at
// least.
func waysLanes(geos []cache.Config, techs []Technique) ([]core.Config, bool) {
	if len(geos) < 2 || len(techs) == 0 {
		return nil, false
	}
	for _, g := range geos {
		if g.Validate() != nil || g.Sets != geos[0].Sets || g.LineBytes != geos[0].LineBytes {
			return nil, false
		}
	}
	var cfgs []core.Config
	for _, t := range techs {
		if t.validate() != nil || t.Domain != techs[0].Domain {
			return nil, false
		}
		switch t.Shares.Part {
		case Baseline:
		case Lane:
			if t.Shares.MAB.Consistency != core.PolicyEvictInvalidate {
				return nil, false
			}
			cfgs = append(cfgs, t.Shares.MAB)
		default:
			return nil, false
		}
	}
	return cfgs, len(cfgs) > 0
}
