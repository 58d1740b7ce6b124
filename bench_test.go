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
// worker pool buys. One worker still uses more than one CPU: each of its
// runs delivers to every controller on the controller's own goroutine
// (trace.Stager), beside the simulator, so compare its user CPU as well
// as its wall time.
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

// BenchmarkExploreSweepShared times a cold multi-geometry sweep — sets
// {128, 256, 512, 1024} × ways {1, 2, 4} × lines {16, 32}, the baseline
// and a 2x8 MAB, over DCT and FFT: 48 grid points — on the execute-once /
// replay-many engine (the default): each workload executes once, and the
// three way counts of each (sets, line) replay the capture into one ways
// group.
func BenchmarkExploreSweepShared(b *testing.B) {
	space := explore.Space{
		Domain:     suite.Data,
		Sets:       []int{128, 256, 512, 1024},
		Ways:       []int{1, 2, 4},
		LineBytes:  []int{16, 32},
		TagEntries: []int{2},
		SetEntries: []int{8},
		Workloads:  []workloads.Workload{workloads.DCT(), workloads.FFT()},
	}
	for i := 0; i < b.N; i++ {
		if _, err := explore.Run(context.Background(), space); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplayRate measures raw replay speed (events/sec) of the
// packed buffer into a null sink — the ceiling on how fast a replayed grid
// point can go. A stored fetch event is a run of packets, so packets/s
// (packetEvents) is the rate that compares with captures of one event per
// packet.
func BenchmarkTraceReplayRate(b *testing.B) {
	var buf trace.Buffer
	if _, err := workloads.Run(workloads.DCT(), trace.NewCapture(&buf)); err != nil {
		b.Fatal(err)
	}
	sinks := []trace.SinkPair{{
		Fetch: trace.FetchFunc(func(trace.FetchEvent) {}),
		Data:  trace.DataFunc(func(trace.DataEvent) {}),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.ReplayAll(context.Background(), sinks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()*b.N)/b.Elapsed().Seconds(), "events/s")
	reportPackets(b, buf.Len(), packetEvents(&buf))
}

// packetEvents counts buf's events the way the trace formats before fetch
// runs stored them, so rates stay comparable across that change: a fetch
// run counts once per packet, a data access once.
func packetEvents(buf *trace.Buffer) int {
	n := buf.NumDatas()
	for _, ev := range buf.Fetches() {
		n += ev.NumPackets()
	}
	return n
}

// reportPackets reports a benchmark whose every op walks events stored
// events standing for packets packet-level ones: packets/s, and
// events/packet, what a stored event is worth.
func reportPackets(b *testing.B, events, packets int) {
	b.ReportMetric(float64(packets*b.N)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(events)/float64(packets), "events/packet")
}

// BenchmarkTraceFanOutRate measures raw fan-out speed of one batched pass
// into eight null sinks — the ceiling of the fan-out engine itself, with
// the decode amortized across the whole sink group. The reported events/s
// counts per-sink deliveries, comparable to eight BenchmarkTraceReplayRate
// passes back to back, and packets/s the packets those deliveries stand
// for.
func BenchmarkTraceFanOutRate(b *testing.B) {
	var buf trace.Buffer
	if _, err := workloads.Run(workloads.DCT(), trace.NewCapture(&buf)); err != nil {
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
	reportPackets(b, sinks*buf.Len(), sinks*packetEvents(&buf))
}

// BenchmarkTraceColumnCodec measures the WMTRACE4 column codec end to end:
// serializing a real capture's sealed delta/varint chunks and parsing them
// back into an adopted buffer. Reported metrics: spill bytes per event
// (the compression the format buys on the paper's access mix) and encode
// throughput, each per stored event and per packet-level one
// (packetEvents).
func BenchmarkTraceColumnCodec(b *testing.B) {
	var buf trace.Buffer
	if _, err := workloads.Run(workloads.DCT(), trace.NewCapture(&buf)); err != nil {
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
	b.ReportMetric(float64(spill.Len())/float64(packetEvents(&buf)), "spill_B/packet")
	b.ReportMetric(float64(buf.Len()*b.N)/b.Elapsed().Seconds(), "events/s")
	reportPackets(b, buf.Len(), packetEvents(&buf))
}

// BenchmarkSimulatorIPS measures raw simulator speed (instructions/sec) on
// the DCT benchmark without any cache models attached, with one leg per
// ISA: the FRVL kernel and its RV32 port.
func BenchmarkSimulatorIPS(b *testing.B) {
	for _, name := range []string{"DCT", "rv32:DCT"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				var err error
				if w.ISA == workloads.ISARV32 {
					c := sim.NewRV32()
					c.LoadProgram(p, workloads.StackTop)
					err = c.Run(workloads.DefaultMaxInstrs)
					instrs += c.Instrs
				} else {
					c := sim.New()
					c.LoadProgram(p, workloads.StackTop)
					err = c.Run(workloads.DefaultMaxInstrs)
					instrs += c.Instrs
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
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

// jpegCapture is jpeg_enc's captured trace, which the controller
// benchmarks replay; captured once per process.
var jpegCapture = sync.OnceValues(func() (*trace.Buffer, error) {
	buf := &trace.Buffer{}
	_, err := workloads.Run(workloads.JPEGEnc(), trace.NewCapture(buf))
	return buf, err
})

func getJPEGCapture(b *testing.B) *trace.Buffer {
	b.Helper()
	buf, err := jpegCapture()
	if err != nil {
		b.Fatal(err)
	}
	return buf
}

// replayBlocks hands deliver b.N events of evs in blocks of at most 4096,
// as replay and live delivery do, starting over at the end of evs.
func replayBlocks[E any](b *testing.B, evs []E, deliver func([]E)) {
	b.ResetTimer()
	for i := 0; i < b.N; {
		for lo := 0; lo < len(evs) && i < b.N; {
			n := min(4096, len(evs)-lo, b.N-i)
			deliver(evs[lo : lo+n])
			lo, i = lo+n, i+n
		}
	}
}

// BenchmarkDController measures one way-memoized D-cache access end to
// end, with one MAB lane (the paper's 2x8) and with the four lanes a
// geo-sweep grid point carries (2 x {4, 8, 16, 32}) sharing one cache, so
// the cost of each further lane shows. The synthetic leg walks 1024 bases
// 4 bytes apart, so every 8th access claims a new set index: the worst
// case for the lanes' depth crossings. The paper leg replays jpeg_enc's
// captured data stream. Its ways=1,2,4 rows deliver it to the four lanes
// at geo-sweep's three way counts of 512 sets: one ways group
// (core.NewDWays), and, as the rows before it, three one-geometry
// controllers.
func BenchmarkDController(b *testing.B) {
	evs := make([]trace.DataEvent, 4096)
	for i := range evs {
		base := uint32(0x100000 + (i&1023)*4)
		evs[i] = trace.DataEvent{Addr: base + 8, Base: base, Disp: 8, Size: 4}
	}
	lanes := []struct {
		name string
		mabs []core.Config
	}{
		{"lanes=1", []core.Config{core.DefaultD}},
		{"lanes=4", []core.Config{{TagEntries: 2, SetEntries: 4}, {TagEntries: 2, SetEntries: 8},
			{TagEntries: 2, SetEntries: 16}, {TagEntries: 2, SetEntries: 32}}},
	}
	for _, bc := range lanes {
		b.Run(bc.name, func(b *testing.B) {
			d := core.NewDLanes(cache.FRV32K, bc.mabs)
			replayBlocks(b, evs, d.OnDataBatch)
		})
	}
	for _, bc := range lanes {
		b.Run("paper/"+bc.name, func(b *testing.B) {
			datas := getJPEGCapture(b).Datas()
			d := core.NewDLanes(cache.FRV32K, bc.mabs)
			replayBlocks(b, datas, d.OnDataBatch)
		})
	}
	geos := []cache.Config{{Sets: 512, Ways: 1, LineBytes: 32}, {Sets: 512, Ways: 2, LineBytes: 32},
		{Sets: 512, Ways: 4, LineBytes: 32}}
	mabs := lanes[1].mabs
	b.Run("paper/ways=1,2,4", func(b *testing.B) {
		datas := getJPEGCapture(b).Datas()
		d := core.NewDWays(geos, mabs)
		replayBlocks(b, datas, d.OnDataBatch)
	})
	b.Run("paper/ways=1,2,4/apart", func(b *testing.B) {
		datas := getJPEGCapture(b).Datas()
		var ds []*core.DController
		for _, geo := range geos {
			ds = append(ds, core.NewDLanes(geo, mabs))
		}
		replayBlocks(b, datas, func(evs []trace.DataEvent) {
			for _, d := range ds {
				d.OnDataBatch(evs)
			}
		})
	})
}

// BenchmarkIController measures one way-memoized I-cache fetch event end
// to end over jpeg_enc's captured fetch stream, delivered in 4096-event
// blocks: with one MAB lane (the paper's 2x16), and with the three lanes
// (2 x {8, 16, 32}) every paper-live benchmark's I side carries. An event
// is a run of packets; packets/s is the rate in packets fetched.
func BenchmarkIController(b *testing.B) {
	for _, bc := range []struct {
		name string
		mabs []core.Config
	}{
		{"lanes=1", []core.Config{core.DefaultI}},
		{"lanes=3", []core.Config{{TagEntries: 2, SetEntries: 8}, {TagEntries: 2, SetEntries: 16},
			{TagEntries: 2, SetEntries: 32}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := getJPEGCapture(b)
			fetches := buf.Fetches()
			ic := core.NewILanes(cache.FRV32K, bc.mabs)
			replayBlocks(b, fetches, ic.OnFetchBatch)
			packets := packetEvents(buf) - buf.NumDatas()
			b.ReportMetric(float64(b.N)*float64(packets)/float64(len(fetches))/b.Elapsed().Seconds(), "packets/s")
			b.ReportMetric(float64(len(fetches))/float64(packets), "events/packet")
		})
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
