package suite

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// attachSpecs are the synthetic streams the grouping property draws from:
// every pattern, small enough that a case runs in milliseconds.
var attachSpecs = []string{
	"synth:hotloop,fp=2KiB,n=2048",
	"synth:branchy,fp=1KiB,n=2048",
	"synth:pchase,fp=4KiB,n=1024",
	"synth:stream,fp=8KiB,n=2048",
	"synth:blocked,fp=4KiB,n=1024",
	"synth:phase,fp=4KiB,phase=256,n=2048",
}

// attachCase is one draw of the grouping property: a geometry, a
// technique list and a synthetic workload.
type attachCase struct {
	geo   cache.Config
	techs []Technique
	w     workloads.Workload
}

func (c attachCase) String() string {
	s := fmt.Sprintf("%s %+v", c.w.Name, c.geo)
	for _, t := range c.techs {
		s += fmt.Sprintf(" %s/%s", t.Domain, t.ID)
		if t.Shares.Part != Alone {
			s += fmt.Sprintf("%+v", t.Shares)
		}
	}
	return s
}

// adHocLane returns a lane technique outside the registry with a random
// MAB size, consistency policy and clearing mode.
func adHocLane(r *rand.Rand, id ID, dom Domain) Technique {
	cfg := core.Config{
		TagEntries:  1 + r.IntN(4),
		SetEntries:  []int{1, 2, 4, 8, 16, 32}[r.IntN(6)],
		Consistency: core.Policy(r.IntN(2)),
		Clear:       core.ClearMode(r.IntN(4)),
	}
	if dom == Data {
		return MABDataTechnique(id, "ad hoc lane", cfg)
	}
	return MABFetchTechnique(id, "ad hoc lane", cfg)
}

// randomAttachCase draws a case of the given shape: 0 a random subset of
// the registered and ad hoc techniques in random order, 1 baselines only,
// 2 lanes only, 3 two IDs on one MAB configuration, 4 both domains with
// everything registered plus ad hoc lanes.
func randomAttachCase(t *testing.T, r *rand.Rand, shape int) attachCase {
	t.Helper()
	c := attachCase{geo: cache.Config{
		Sets:      1 << r.IntN(9),
		Ways:      1 << r.IntN(4),
		LineBytes: 16 << r.IntN(3),
	}}
	w, err := workloads.ByName(attachSpecs[r.IntN(len(attachSpecs))])
	if err != nil {
		t.Fatal(err)
	}
	c.w = w
	domain := func() Domain { return Domain(r.IntN(2)) }
	lanes := func(n int) []Technique {
		out := make([]Technique, n)
		for i := range out {
			out[i] = adHocLane(r, ID(fmt.Sprintf("lane-%d", i)), domain())
		}
		return out
	}
	reg := Techniques()
	switch shape {
	case 0:
		pool := append(reg, lanes(1+r.IntN(6))...)
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		c.techs = pool[:1+r.IntN(len(pool))]
	case 1:
		for _, d := range []Domain{Data, Fetch} {
			if r.IntN(3) > 0 {
				c.techs = append(c.techs, MustLookup(d, "original"))
			}
		}
		if len(c.techs) == 0 || r.IntN(2) == 0 {
			c.techs = append(c.techs, MustLookup(Fetch, IA4), MustLookup(Data, DSetBuf))
		}
	case 2:
		c.techs = lanes(1 + r.IntN(6))
	case 3:
		a := adHocLane(r, "twin-a", domain())
		b := a
		b.ID = "twin-b"
		c.techs = append([]Technique{a}, append(lanes(r.IntN(3)), b)...)
		if r.IntN(2) == 0 {
			c.techs = append(c.techs, MustLookup(a.Domain, "original"))
		}
	case 4:
		c.techs = append(reg, lanes(2+r.IntN(4))...)
		for _, d := range []Domain{Data, Fetch} {
			c.techs = append(c.techs, adHocLane(r, "both-"+ID(d.String()), d))
		}
		r.Shuffle(len(c.techs), func(i, j int) { c.techs[i], c.techs[j] = c.techs[j], c.techs[i] })
	}
	return c
}

// wantPairs counts the sinks Attach should build: one per technique that
// does not share, one controller per domain with a lane, and one per
// baseline or observer of a domain with none.
func wantPairs(techs []Technique) int {
	var lanes, others [2]int
	n := 0
	for _, t := range techs {
		switch t.Shares.Part {
		case Alone:
			n++
		case Lane:
			lanes[t.Domain]++
		default:
			others[t.Domain]++
		}
	}
	for d := range lanes {
		if lanes[d] > 0 {
			n++
		} else {
			n += others[d]
		}
	}
	return n
}

// TestAttachMatchesInstantiate is the grouping's oracle: over random
// geometries, random technique lists (registered techniques and ad hoc
// lanes of random size and both consistency policies, in random order)
// and synthetic streams, every technique Run reports — live, and replayed
// through a trace cache — has exactly the counters and power model of the
// technique instantiated alone on the same stream, and the run the same
// cycles and instructions. Attach must also build the sinks it promises:
// one controller per domain with a lane.
func TestAttachMatchesInstantiate(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	ctx := context.Background()
	tc := NewTraceCache()
	for seed := range seeds {
		r := rand.New(rand.NewPCG(uint64(seed), 0xa77ac4))
		c := randomAttachCase(t, r, seed%5)

		refs := make([]Instance, len(c.techs))
		refPairs := make([]trace.SinkPair, len(c.techs))
		for i, tech := range c.techs {
			inst, pair, err := tech.Instantiate(c.geo)
			if err != nil {
				t.Fatal(err)
			}
			refs[i], refPairs[i] = inst, pair
		}
		cycles, instrs, err := Drive(ctx, c.w, 0, refPairs, nil, 1)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}

		got, _, err := Attach(c.geo, c.techs)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if len(got) != wantPairs(c.techs) {
			t.Errorf("%v: Attach built %d sinks, want %d", c, len(got), wantPairs(c.techs))
		}

		for _, tcOpt := range []*TraceCache{nil, tc} {
			opts := []Option{WithWorkloads(c.w), WithGeometry(c.geo), WithTechniques(c.techs...)}
			if tcOpt != nil {
				opts = append(opts, WithTraceCache(tcOpt))
			}
			res, err := Run(ctx, opts...)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			b := res.Benchmarks[0]
			if b.Cycles != cycles || b.Instrs != instrs {
				t.Errorf("%v (trace cache %t): cycles/instrs %d/%d, alone %d/%d",
					c, tcOpt != nil, b.Cycles, b.Instrs, cycles, instrs)
			}
			for i, tech := range c.techs {
				tr := b.D[tech.ID]
				if tech.Domain == Fetch {
					tr = b.I[tech.ID]
				}
				if *tr.Stats != *refs[i].Stats || tr.Model != refs[i].Model {
					t.Errorf("%v (trace cache %t): %s/%s\ngot   %+v %+v\nalone %+v %+v",
						c, tcOpt != nil, tech.Domain, tech.ID, *tr.Stats, tr.Model, *refs[i].Stats, refs[i].Model)
				}
			}
		}
	}
}
