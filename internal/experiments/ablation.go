package experiments

import (
	"context"
	"fmt"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/cacti"
	"waymemo/internal/core"
	"waymemo/internal/power"
	"waymemo/internal/report"
	"waymemo/internal/suite"
	"waymemo/internal/synth"
	"waymemo/internal/trace"
)

// This file holds the studies beyond the paper's published figures: the
// related-work techniques of its Section 2 run on the same streams, the
// MAB+line-buffer combination the conclusion announces, the consistency
// policy comparison motivated by the §3.3 analysis (see core.Policy), and a
// fetch-packet-width sensitivity study.
//
// Each study expresses its one-off configurations as ad hoc suite.Technique
// values (no registration needed) and hands them to suite.Run, so the
// studies inherit the runner's parallelism and cancellation for free.

// AblationRow is one technique's aggregate over the seven benchmarks.
type AblationRow struct {
	Tech         string
	Tags         float64 // tag reads per access (average over benchmarks)
	Ways         float64
	PowerMW      float64 // average power
	CyclePenalty float64 // extra cycles per base cycle (performance loss)
	BufHitRate   float64
}

// dTech and iTech build one-off techniques for the studies below.
func dTech(id suite.ID, f suite.Factory) suite.Technique {
	return suite.Technique{ID: id, Domain: suite.Data, New: f}
}

func iTech(id suite.ID, f suite.Factory) suite.Technique {
	return suite.Technique{ID: id, Domain: suite.Fetch, New: f}
}

// lineBufferEnergies is the single-entry line buffer shared by the
// line-buffer baseline and the MAB+line-buffer combination.
func lineBufferEnergies(geo cache.Config) cacti.BufferEnergies {
	return cacti.LineBuffer(cacti.Tech130, 1, geo.LineBytes, geo.TagBits())
}

// AblationD compares all data-cache techniques, including the related work
// of Section 2 and the paper's announced line-buffer combination. Extra
// suite options (parallelism, progress, ...) pass through to the runner.
func AblationD(ctx context.Context, opts ...suite.Option) ([]AblationRow, error) {
	techs := ablationDTechs()
	runOpts := append([]suite.Option{suite.WithGeometry(Geometry)}, opts...)
	r, err := suite.Run(ctx, append(runOpts, suite.WithTechniques(techs...))...)
	if err != nil {
		return nil, err
	}
	return aggregateAblation(r, techs, true), nil
}

// ablationDTechs lists AblationD's techniques, in its row order.
func ablationDTechs() []suite.Technique {
	l0geo := cache.Config{Sets: 8, Ways: 1, LineBytes: 32} // 256B filter cache
	return []suite.Technique{
		suite.MustLookup(suite.Data, DOrig),
		dTech("two-phase[8]", func(geo cache.Config) suite.Instance {
			c := baseline.NewTwoPhaseD(geo)
			return suite.Instance{Data: c, Stats: c.Stats, Model: suite.ArrayModel(geo)}
		}),
		dTech("line-buffer[13]", func(geo cache.Config) suite.Instance {
			c := baseline.NewLineBufferD(geo)
			m := suite.ArrayModel(geo)
			m.Buffer = lineBufferEnergies(geo)
			return suite.Instance{Data: c, Stats: c.Stats, Model: m}
		}),
		dTech("filter-cache[6]", func(geo cache.Config) suite.Instance {
			c := baseline.NewFilterCacheD(l0geo, geo)
			m := suite.ArrayModel(geo)
			m.Buffer = cacti.LineBuffer(cacti.Tech130, l0geo.Sets, l0geo.LineBytes, 24)
			return suite.Instance{Data: c, Stats: c.Stats, Model: m}
		}),
		suite.MustLookup(suite.Data, DSetBuf),
		suite.MustLookup(suite.Data, DMAB),
		dTech("mab-2x8+linebuf", func(geo cache.Config) suite.Instance {
			c := core.NewDLineBufferController(geo, core.DefaultD)
			m := suite.ArrayModel(geo)
			m.MAB = synth.Characterize(2, 8)
			m.Buffer = lineBufferEnergies(geo)
			return suite.Instance{Data: c, Stats: c.Stats, Model: m}
		}),
	}
}

// AblationI compares the instruction-cache techniques of Section 2.
func AblationI(ctx context.Context, opts ...suite.Option) ([]AblationRow, error) {
	techs := ablationITechs()
	runOpts := append([]suite.Option{suite.WithGeometry(Geometry)}, opts...)
	r, err := suite.Run(ctx, append(runOpts, suite.WithTechniques(techs...))...)
	if err != nil {
		return nil, err
	}
	return aggregateAblation(r, techs, false), nil
}

// ablationITechs lists AblationI's techniques, in its row order.
func ablationITechs() []suite.Technique {
	return []suite.Technique{
		suite.MustLookup(suite.Fetch, IOrig),
		suite.MustLookup(suite.Fetch, IA4),
		iTech("way-predict[9]", func(geo cache.Config) suite.Instance {
			c := baseline.NewWayPredictI(geo)
			return suite.Instance{Fetch: c, Stats: c.Stats, Model: suite.ArrayModel(geo)}
		}),
		iTech("ma-links[11]", func(geo cache.Config) suite.Instance {
			c := baseline.NewMaLinksI(geo)
			m := suite.ArrayModel(geo)
			m.Buffer = cacti.LineBuffer(cacti.Tech130, 1, 1, 2) // two link bits
			return suite.Instance{Fetch: c, Stats: c.Stats, Model: m}
		}),
		suite.MustLookup(suite.Fetch, IMAB16),
	}
}

// aggregateAblation averages per-benchmark counters into one row per
// technique, preserving the technique order.
func aggregateAblation(r *suite.Results, techs []suite.Technique, withBuf bool) []AblationRow {
	rows := make([]AblationRow, len(techs))
	for i, t := range techs {
		rows[i].Tech = string(t.ID)
	}
	for _, b := range r.Benchmarks {
		for i, t := range techs {
			tr := b.D[t.ID]
			if t.Domain == suite.Fetch {
				tr = b.I[t.ID]
			}
			s := tr.Stats
			rows[i].Tags += s.TagsPerAccess()
			rows[i].Ways += s.WaysPerAccess()
			rows[i].PowerMW += power.Compute(s, b.Cycles, tr.Model).TotalMW()
			rows[i].CyclePenalty += float64(s.ExtraCycles) / float64(b.Cycles)
			if withBuf && s.BufReads+s.SetBufReads > 0 {
				rows[i].BufHitRate += float64(s.BufHits+s.SetBufHits) /
					float64(s.BufReads+s.SetBufReads)
			}
		}
	}
	n := float64(len(r.Benchmarks))
	for i := range rows {
		rows[i].Tags /= n
		rows[i].Ways /= n
		rows[i].PowerMW /= n
		rows[i].CyclePenalty /= n
		rows[i].BufHitRate /= n
	}
	return rows
}

// AblationTable renders ablation rows.
func AblationTable(title string, rows []AblationRow) report.Table {
	t := report.Table{Title: title, Columns: []string{
		"technique", "tags/access", "ways/access", "power mW", "cycle penalty", "buf hit"}}
	for _, r := range rows {
		t.AddRow(r.Tech, report.F(r.Tags, 3), report.F(r.Ways, 3),
			report.F(r.PowerMW, 2), report.Pct(r.CyclePenalty), report.Pct(r.BufHitRate))
	}
	return t
}

// ConsistencyRow summarizes one MAB consistency policy over the suite.
type ConsistencyRow struct {
	Policy     string
	Violations uint64
	MABHitRate float64
	TagsPerAcc float64
}

// AblationConsistency compares the sound evict-invalidate policy with the
// paper's pure LRU rules (including both readings of the §3.3 large-
// displacement clearing rule).
func AblationConsistency(ctx context.Context, opts ...suite.Option) ([]ConsistencyRow, error) {
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"evict-invalidate (sound)", core.Config{TagEntries: 2, SetEntries: 8}},
		{"paper rules, clear-all", core.Config{TagEntries: 2, SetEntries: 8,
			Consistency: core.PolicyPaper, Clear: core.ClearAll}},
		{"paper rules, clear-LRU-row", core.Config{TagEntries: 2, SetEntries: 8,
			Consistency: core.PolicyPaper, Clear: core.ClearLRURow}},
		{"paper rules, Nt=1 (provable)", core.Config{TagEntries: 1, SetEntries: 8,
			Consistency: core.PolicyPaper, Clear: core.ClearAll}},
	}
	// The policies are lanes of one shared D-cache (suite.Attach).
	techs := make([]suite.Technique, len(configs))
	for i, c := range configs {
		techs[i] = suite.MABDataTechnique(suite.ID(c.name), c.name, c.cfg)
	}
	runOpts := append([]suite.Option{suite.WithGeometry(Geometry)}, opts...)
	r, err := suite.Run(ctx, append(runOpts, suite.WithTechniques(techs...))...)
	if err != nil {
		return nil, err
	}
	rows := make([]ConsistencyRow, len(configs))
	for i, c := range configs {
		rows[i].Policy = c.name
	}
	for _, b := range r.Benchmarks {
		for i := range techs {
			s := b.D[techs[i].ID].Stats
			rows[i].Violations += s.Violations
			rows[i].MABHitRate += s.MABHitRate()
			rows[i].TagsPerAcc += s.TagsPerAccess()
		}
	}
	n := float64(len(r.Benchmarks))
	for i := range rows {
		rows[i].MABHitRate /= n
		rows[i].TagsPerAcc /= n
	}
	return rows, nil
}

// ConsistencyTable renders the consistency ablation.
func ConsistencyTable(rows []ConsistencyRow) report.Table {
	t := report.Table{Title: "Consistency-policy ablation (D-cache, 2x8 MAB unless noted)",
		Columns: []string{"policy", "violations", "MAB hit rate", "tags/access"}}
	for _, r := range rows {
		t.AddRow(r.Policy, fmt.Sprintf("%d", r.Violations),
			report.Pct(r.MABHitRate), report.F(r.TagsPerAcc, 3))
	}
	return t
}

// PacketRow summarizes one fetch-packet width.
type PacketRow struct {
	PacketBytes uint32
	Cycles      uint64
	IntraSeq    float64 // fraction of fetches that are case 1
	A4Tags      float64 // [4] tags/access
	MABTags     float64 // 2x16 MAB tags/access
}

// AblationPacket re-runs the suite with 4-, 8- and 16-byte fetch packets:
// wider packets mean fewer I-cache accesses but a smaller intra-line
// sequential fraction per access.
func AblationPacket(ctx context.Context, opts ...suite.Option) ([]PacketRow, error) {
	techs := []suite.Technique{
		suite.MustLookup(suite.Fetch, IA4),
		suite.MustLookup(suite.Fetch, IMAB16),
	}
	var rows []PacketRow
	for _, pb := range []uint32{4, 8, 16} {
		runOpts := append([]suite.Option{suite.WithGeometry(Geometry)}, opts...)
		r, err := suite.Run(ctx, append(runOpts,
			suite.WithTechniques(techs...), suite.WithPacketBytes(pb))...)
		if err != nil {
			return nil, err
		}
		row := PacketRow{PacketBytes: pb}
		var nb float64
		for _, b := range r.Benchmarks {
			a4, mab := b.I[IA4].Stats, b.I[IMAB16].Stats
			row.Cycles += b.Cycles
			var total uint64
			for _, f := range a4.Flow {
				total += f
			}
			row.IntraSeq += float64(a4.Flow[trace.IntraSeq]) / float64(total)
			row.A4Tags += a4.TagsPerAccess()
			row.MABTags += mab.TagsPerAccess()
			nb++
		}
		row.IntraSeq /= nb
		row.A4Tags /= nb
		row.MABTags /= nb
		rows = append(rows, row)
	}
	return rows, nil
}

// PacketTable renders the packet-width ablation.
func PacketTable(rows []PacketRow) report.Table {
	t := report.Table{Title: "Fetch-packet width ablation (I-cache)",
		Columns: []string{"packet bytes", "fetches", "intra-seq", "[4] tags/acc", "MAB tags/acc"}}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.PacketBytes), fmt.Sprintf("%d", r.Cycles),
			report.Pct(r.IntraSeq), report.F(r.A4Tags, 3), report.F(r.MABTags, 3))
	}
	return t
}
