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
