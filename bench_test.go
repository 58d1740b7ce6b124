package waymemo_test

// One benchmark per table and figure of the paper, plus micro-benchmarks of
// the substrate. The figure benchmarks share a single run of the
// seven-benchmark suite and report the headline metric of each figure via
// b.ReportMetric, so `go test -bench=.` both times the regeneration and
// prints the reproduced numbers.

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/experiments"
	"waymemo/internal/explore"
	"waymemo/internal/sim"
	"waymemo/internal/suite"
	"waymemo/internal/synth"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

var (
	suiteOnce    sync.Once
	suiteResults *suite.Results
	suiteErr     error
)

func getSuite(b *testing.B) *suite.Results {
	b.Helper()
	suiteOnce.Do(func() { suiteResults, suiteErr = suite.Run(context.Background()) })
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteResults
}

// BenchmarkTable1 regenerates the MAB area grid (Table 1).
func BenchmarkTable1(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		for _, row := range synth.Grid() {
			for _, r := range row {
				area = r.AreaMM2
			}
		}
	}
	b.ReportMetric(synth.Characterize(2, 8).AreaMM2, "mm2_2x8")
	_ = area
}

// BenchmarkTable2 regenerates the MAB delay grid (Table 2).
func BenchmarkTable2(b *testing.B) {
	var d float64
	for i := 0; i < b.N; i++ {
		for _, row := range synth.Grid() {
			for _, r := range row {
				d = r.DelayNS
			}
		}
	}
	b.ReportMetric(synth.Characterize(2, 16).DelayNS, "ns_2x16")
	_ = d
}

// BenchmarkTable3 regenerates the MAB power grid (Table 3).
func BenchmarkTable3(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		for _, row := range synth.Grid() {
			for _, r := range row {
				p = r.ActiveMW
			}
		}
	}
	b.ReportMetric(synth.Characterize(2, 8).ActiveMW, "mW_active_2x8")
	b.ReportMetric(synth.Characterize(2, 8).SleepMW, "mW_sleep_2x8")
	_ = p
}

// BenchmarkFigure4 regenerates the D-cache tag/way access comparison.
// Metric: average fraction of tag reads eliminated by the 2x8 MAB.
func BenchmarkFigure4(b *testing.B) {
	r := getSuite(b)
	var rows []experiments.AccessRow
	for i := 0; i < b.N; i++ {
		rows = Figure4Rows(r)
	}
	var red float64
	n := 0
	for _, row := range rows {
		if row.Tech == experiments.DMAB {
			red += 1 - row.Tags/2.0
			n++
		}
	}
	b.ReportMetric(red/float64(n), "tag_reduction_avg")
}

// Figure4Rows is split out so the compiler cannot fold the benchmark away.
func Figure4Rows(r *suite.Results) []experiments.AccessRow {
	return experiments.Figure4(r)
}

// BenchmarkFigure5 regenerates the D-cache power decomposition.
// Metric: average D-cache power saving of the 2x8 MAB vs the original.
func BenchmarkFigure5(b *testing.B) {
	r := getSuite(b)
	var rows []experiments.PowerRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure5(r)
	}
	total := map[suite.ID]float64{}
	for _, row := range rows {
		total[row.Tech] += row.B.TotalMW()
	}
	b.ReportMetric(1-total[experiments.DMAB]/total[experiments.DOrig], "d_saving_avg")
}

// BenchmarkFigure6 regenerates the I-cache tag/way access comparison.
// Metric: average tag reads per access under approach [4] (the paper's
// baseline bar) and under the 2x16 MAB.
func BenchmarkFigure6(b *testing.B) {
	r := getSuite(b)
	var rows []experiments.AccessRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure6(r)
	}
	sum := map[suite.ID]float64{}
	cnt := map[suite.ID]int{}
	for _, row := range rows {
		sum[row.Tech] += row.Tags
		cnt[row.Tech]++
	}
	b.ReportMetric(sum[experiments.IA4]/float64(cnt[experiments.IA4]), "tags_access_a4")
	b.ReportMetric(sum[experiments.IMAB16]/float64(cnt[experiments.IMAB16]), "tags_access_2x16")
}

// BenchmarkFigure7 regenerates the I-cache power comparison.
// Metric: average I-cache power saving of the 2x16 MAB vs approach [4].
func BenchmarkFigure7(b *testing.B) {
	r := getSuite(b)
	var rows []experiments.PowerRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure7(r)
	}
	total := map[suite.ID]float64{}
	for _, row := range rows {
		total[row.Tech] += row.B.TotalMW()
	}
	b.ReportMetric(1-total[experiments.IMAB16]/total[experiments.IA4], "i_saving_avg")
}

// BenchmarkFigure8 regenerates the headline total-power figure.
// Metrics: average and maximum total cache power saving (paper: 0.30/0.40).
func BenchmarkFigure8(b *testing.B) {
	r := getSuite(b)
	var rows []experiments.TotalRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure8(r)
	}
	avg, max := experiments.AverageSaving(rows)
	b.ReportMetric(avg, "saving_avg")
	b.ReportMetric(max, "saving_max")
}

// BenchmarkSuite times one full pass of the seven benchmarks with every
// technique attached — the cost of regenerating Figures 4-8 from scratch —
// at the default parallelism.
func BenchmarkSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := suite.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSequential is BenchmarkSuite pinned to one worker — the
// pre-parallelism baseline; the ratio to BenchmarkSuite is the speedup the
// worker pool buys.
func BenchmarkSuiteSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := suite.Run(context.Background(), suite.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteReplay times the seven-benchmark suite on a warm trace
// cache with the batched fan-out engine (the default): every benchmark is
// one pass over its captured stream feeding all eight techniques. The ratio
// to BenchmarkSuite is the per-pass cost the execute-once / replay-many
// engine removes from repeated runs (ablations, report mode, sweeps).
func BenchmarkSuiteReplay(b *testing.B) {
	tc := suite.NewTraceCache()
	if _, err := suite.Run(context.Background(), suite.WithTraceCache(tc)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Run(context.Background(), suite.WithTraceCache(tc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteReplayPerSink is BenchmarkSuiteReplay on the legacy path —
// one per-event pass per technique sink (wmx -replay-batch=false). The
// ratio to BenchmarkSuiteReplay is the batched fan-out's win.
func BenchmarkSuiteReplayPerSink(b *testing.B) {
	tc := suite.NewTraceCache()
	if _, err := suite.Run(context.Background(), suite.WithTraceCache(tc)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Run(context.Background(), suite.WithTraceCache(tc),
			suite.WithBatchReplay(false)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreSweepShared times a cold multi-geometry sweep
// (explore.EngineBenchSpace: 24 geometries × 2 workloads = 48 grid points)
// on the execute-once / replay-many engine (the default): each workload
// executes once, every geometry replays the capture.
func BenchmarkExploreSweepShared(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := explore.Run(context.Background(), explore.EngineBenchSpace()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreSweepLive is the same sweep with trace sharing disabled —
// one full simulator execution per grid point, the pre-engine behavior. The
// ratio to BenchmarkExploreSweepShared is the engine's speedup.
func BenchmarkExploreSweepLive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := explore.Run(context.Background(), explore.EngineBenchSpace(),
			explore.WithTraceSharing(false)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplayRate measures raw replay speed (events/sec) of the
// packed buffer into a null sink — the ceiling on how fast a replayed grid
// point can go.
func BenchmarkTraceReplayRate(b *testing.B) {
	var buf trace.Buffer
	if _, err := workloads.Run(workloads.DCT(), &buf, &buf); err != nil {
		b.Fatal(err)
	}
	sinkF := trace.FetchFunc(func(trace.FetchEvent) {})
	sinkD := trace.DataFunc(func(trace.DataEvent) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.Replay(context.Background(), sinkF, sinkD); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTraceFanOutRate measures raw fan-out speed of one batched pass
// into eight null sinks — the ceiling of the fan-out engine itself, with
// the decode amortized across the whole sink group. The reported events/s
// counts per-sink deliveries, comparable to eight BenchmarkTraceReplayRate
// passes back to back.
func BenchmarkTraceFanOutRate(b *testing.B) {
	var buf trace.Buffer
	if _, err := workloads.Run(workloads.DCT(), &buf, &buf); err != nil {
		b.Fatal(err)
	}
	const sinks = 8
	pairs := make([]trace.SinkPair, sinks)
	for i := range pairs {
		pairs[i] = trace.SinkPair{
			Fetch: trace.FetchFunc(func(trace.FetchEvent) {}),
			Data:  trace.DataFunc(func(trace.DataEvent) {}),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.ReplayAll(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()*sinks*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTraceColumnCodec measures the WMTRACE2 column codec end to end:
// serializing a real capture's sealed delta/varint chunks and parsing them
// back into an adopted buffer. Reported metrics: spill bytes per event
// (the compression the format buys on the paper's access mix) and encode
// throughput.
func BenchmarkTraceColumnCodec(b *testing.B) {
	var buf trace.Buffer
	if _, err := workloads.Run(workloads.DCT(), &buf, &buf); err != nil {
		b.Fatal(err)
	}
	var spill bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spill.Reset()
		if _, err := buf.WriteTo(&spill); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadBuffer(bytes.NewReader(spill.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spill.Len())/float64(buf.Len()), "spill_B/event")
	b.ReportMetric(float64(buf.Len()*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimulatorIPS measures raw simulator speed (instructions/sec) on
// the DCT benchmark without any cache models attached.
func BenchmarkSimulatorIPS(b *testing.B) {
	w := workloads.DCT()
	p, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		c := sim.New()
		c.LoadProgram(p, workloads.StackTop)
		if err := c.Run(workloads.DefaultMaxInstrs); err != nil {
			b.Fatal(err)
		}
		instrs += c.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkMABProbe measures one MAB probe, plus the update a miss
// triggers, at two set-table sizes. The hit stream cycles over exactly
// Nt×Ns memoized pairs, so every probe hits; the miss stream draws 64
// random bases, so nearly every probe misses and updates. Probe and update
// cost should not grow with the set-table size.
func BenchmarkMABProbe(b *testing.B) {
	for _, cfg := range []core.Config{{TagEntries: 2, SetEntries: 8}, {TagEntries: 2, SetEntries: 32}} {
		hits := make([]uint32, 0, cfg.TagEntries*cfg.SetEntries)
		for t := 0; t < cfg.TagEntries; t++ {
			for s := 0; s < cfg.SetEntries; s++ {
				hits = append(hits, uint32(100+t)<<14|uint32(s)<<5)
			}
		}
		r := rand.New(rand.NewSource(5))
		misses := make([]uint32, 64)
		for i := range misses {
			misses[i] = uint32(r.Intn(1 << 28))
		}
		for _, stream := range []struct {
			name  string
			bases []uint32
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(cfg.String()+"/"+stream.name, func(b *testing.B) {
				m := core.New(cfg, cache.FRV32K)
				bases := stream.bases
				for _, base := range bases {
					m.Update(base, 8, 0)
				}
				updates := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					base := bases[i%len(bases)]
					if res := m.Probe(base, 8); !res.Hit {
						m.Update(base, 8, 0)
						updates++
					}
				}
				b.ReportMetric(float64(updates)/float64(b.N), "updates/op")
			})
		}
	}
}

// BenchmarkDController measures one way-memoized D-cache access end to end.
func BenchmarkDController(b *testing.B) {
	d := core.NewDController(cache.FRV32K, core.DefaultD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint32(0x100000 + (i&1023)*4)
		d.OnData(trace.DataEvent{Addr: base + 8, Base: base, Disp: 8, Size: 4})
	}
}

// BenchmarkAssembler measures assembling the largest benchmark program
// (runtime prologue plus the mpeg2 encoder and its embedded frames).
func BenchmarkAssembler(b *testing.B) {
	w := workloads.MPEG2Enc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
