package suite

import (
	"fmt"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/cacti"
	"waymemo/internal/core"
	"waymemo/internal/power"
	"waymemo/internal/synth"
)

// IDs of the standard suite — the eight technique instances of the paper's
// evaluation (Figures 4-8). The D- and I-cache "original" and "mab-2x8"
// techniques share an ID string but live in different domains.
const (
	DOrig   ID = "original"
	DSetBuf ID = "setbuf[14]"
	DMAB    ID = "mab-2x8"

	IOrig  ID = "original"
	IA4    ID = "approach[4]"
	IMAB8  ID = "mab-2x8"
	IMAB16 ID = "mab-2x16"
	IMAB32 ID = "mab-2x32"
)

// ArrayModel returns the power model of a bare cache array (no MAB, no
// buffer) in the paper's 0.13µm process — the model every conventional
// technique shares.
func ArrayModel(geo cache.Config) power.Model {
	return power.Model{Array: cacti.ArrayEnergies(cacti.Tech130, geo)}
}

// sharedModel is the power model of a technique that shares its domain's
// controller as cfg (see Technique.Shares): the bare array for the
// baseline's zero Config, plus the synthesized MAB for a lane.
func sharedModel(geo cache.Config, cfg core.Config) power.Model {
	m := ArrayModel(geo)
	if cfg != (core.Config{}) {
		m.MAB = synth.Characterize(cfg.TagEntries, cfg.SetEntries)
	}
	return m
}

// MABDataTechnique builds a way-memoized D-cache technique for an arbitrary
// MAB configuration, with its power model (array + synthesized MAB). Run
// attaches it as a lane of the data domain's shared controller; New builds
// it alone.
func MABDataTechnique(id ID, desc string, cfg core.Config) Technique {
	return Technique{ID: id, Domain: Data, Desc: desc, Shares: &cfg,
		New: func(geo cache.Config) Instance {
			c := core.NewDController(geo, cfg)
			return Instance{Data: c, Stats: c.Stats, Model: sharedModel(geo, cfg)}
		}}
}

// MABFetchTechnique builds a way-memoized I-cache technique for an
// arbitrary MAB configuration, a lane of the fetch domain's shared
// controller like MABDataTechnique.
func MABFetchTechnique(id ID, desc string, cfg core.Config) Technique {
	return Technique{ID: id, Domain: Fetch, Desc: desc, Shares: &cfg,
		New: func(geo cache.Config) Instance {
			c := core.NewIController(geo, cfg)
			return Instance{Fetch: c, Stats: c.Stats, Model: sharedModel(geo, cfg)}
		}}
}

// mabID formats the conventional NtxNs MAB name ("mab-2x8").
func mabID(cfg core.Config) ID {
	return ID(fmt.Sprintf("mab-%dx%d", cfg.TagEntries, cfg.SetEntries))
}

func init() {
	// Data-cache techniques of Figures 4 and 5.
	MustRegister(Technique{ID: DOrig, Domain: Data, Shares: &core.Config{},
		Desc: "conventional 2-way access (all tags, all ways)",
		New: func(geo cache.Config) Instance {
			c := baseline.NewOriginalD(geo)
			return Instance{Data: c, Stats: c.Stats, Model: ArrayModel(geo)}
		}})
	MustRegister(Technique{ID: DSetBuf, Domain: Data,
		Desc: "set buffer of Yang, Yu & Zhang [14]",
		New: func(geo cache.Config) Instance {
			c := baseline.NewSetBufferD(geo)
			m := ArrayModel(geo)
			m.Buffer = cacti.LineBuffer(cacti.Tech130, geo.Ways, geo.LineBytes, geo.TagBits())
			return Instance{Data: c, Stats: c.Stats, Model: m}
		}})
	MustRegister(MABDataTechnique(mabID(core.DefaultD),
		"way-memoized D-cache, 2x8 MAB (the paper's pick)", core.DefaultD))

	// Instruction-cache techniques of Figures 6 and 7.
	MustRegister(Technique{ID: IOrig, Domain: Fetch, Shares: &core.Config{},
		Desc: "conventional 2-way fetch (all tags, all ways)",
		New: func(geo cache.Config) Instance {
			c := baseline.NewOriginalI(geo)
			return Instance{Fetch: c, Stats: c.Stats, Model: ArrayModel(geo)}
		}})
	MustRegister(Technique{ID: IA4, Domain: Fetch,
		Desc: "intra-line sequential memoization of Panwar & Rennels [4]",
		New: func(geo cache.Config) Instance {
			c := baseline.NewApproach4I(geo)
			return Instance{Fetch: c, Stats: c.Stats, Model: ArrayModel(geo)}
		}})
	MustRegister(MABFetchTechnique(IMAB8,
		"way-memoized I-cache, 2x8 MAB", core.Config{TagEntries: 2, SetEntries: 8}))
	MustRegister(MABFetchTechnique(mabID(core.DefaultI),
		"way-memoized I-cache, 2x16 MAB (the paper's pick)", core.DefaultI))
	MustRegister(MABFetchTechnique(IMAB32,
		"way-memoized I-cache, 2x32 MAB", core.Config{TagEntries: 2, SetEntries: 32}))
}
