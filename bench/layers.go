package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"waymemo/internal/asm"
	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/explore"
	"waymemo/internal/fault"
	"waymemo/internal/power"
	"waymemo/internal/serve"
	"waymemo/internal/serve/client"
	"waymemo/internal/sim"
	"waymemo/internal/suite"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// This file is the traced run: one single-threaded repeat of the workload,
// then a layer pass that calls each layer's public entry points on the
// workload's own inputs, every call wrapped in a span. Each per-layer
// metric is a span name's self time over its count; unattributed_frac
// prices the repeat's own counts at those unit costs and reports what the
// layers leave unexplained.

// span is one timed call into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // indices of the spans being timed, innermost last
}

// do times fn as a span; fn returns the span's work count.
func (t *tracer) do(layer, name string, fn func() (int64, error)) error {
	i := len(t.spans)
	s := span{ID: i + 1, Workload: t.workload, Layer: layer, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, i)
	t.spans[i].StartNS = time.Since(t.t0).Nanoseconds()
	n, err := fn()
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
	t.spans[i].Count = n
	t.open = t.open[:len(t.open)-1]
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// agg is the summed self time and count of every span with one name.
type agg struct {
	selfNS float64
	count  int64
}

// aggregate sums self time (duration minus child durations) by name.
func (t *tracer) aggregate() map[string]agg {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	out := map[string]agg{}
	for _, s := range t.spans {
		a := out[s.Name]
		a.selfNS += float64(s.EndNS - s.StartNS - child[s.ID])
		a.count += s.Count
		out[s.Name] = a
	}
	return out
}

// repeatFor calls fn until at least d has passed, summing its counts, so
// cheap calls are timed over many iterations. A call that does no work
// ends the loop.
func repeatFor(d time.Duration, fn func() (int64, error)) (int64, error) {
	var total int64
	for t0 := time.Now(); ; {
		n, err := fn()
		total += n
		if err != nil || n == 0 || time.Since(t0) >= d {
			return total, err
		}
	}
}

// nullSink consumes events through the batch interfaces and does nothing,
// so replaying into it times decode alone.
type nullSink struct{}

func (nullSink) OnFetch(trace.FetchEvent)        {}
func (nullSink) OnData(trace.DataEvent)          {}
func (nullSink) OnFetchBatch([]trace.FetchEvent) {}
func (nullSink) OnDataBatch([]trace.DataEvent)   {}

// The controllers timed one at a time, named as their metrics.
var (
	filterL0     = cache.Config{Sets: 8, Ways: 1, LineBytes: 32}
	dControllers = []struct {
		name string
		new  func(cache.Config) trace.DataSink
	}{
		{"ctl.original_d", func(g cache.Config) trace.DataSink { return baseline.NewOriginalD(g) }},
		{"ctl.setbuf_d", func(g cache.Config) trace.DataSink { return baseline.NewSetBufferD(g) }},
		{"ctl.mab_d", func(g cache.Config) trace.DataSink { return core.NewDController(g, core.DefaultD) }},
		{"ctl.mab_linebuf_d", func(g cache.Config) trace.DataSink { return core.NewDLineBufferController(g, core.DefaultD) }},
		{"ctl.filter_d", func(g cache.Config) trace.DataSink { return baseline.NewFilterCacheD(filterL0, g) }},
		{"ctl.twophase_d", func(g cache.Config) trace.DataSink { return baseline.NewTwoPhaseD(g) }},
		{"ctl.linebuf_d", func(g cache.Config) trace.DataSink { return baseline.NewLineBufferD(g) }},
	}
	iControllers = []struct {
		name string
		new  func(cache.Config) trace.FetchSink
	}{
		{"ctl.original_i", func(g cache.Config) trace.FetchSink { return baseline.NewOriginalI(g) }},
		{"ctl.approach4_i", func(g cache.Config) trace.FetchSink { return baseline.NewApproach4I(g) }},
		{"ctl.mab_i", func(g cache.Config) trace.FetchSink { return core.NewIController(g, core.DefaultI) }},
		{"ctl.waypredict_i", func(g cache.Config) trace.FetchSink { return baseline.NewWayPredictI(g) }},
		{"ctl.malinks_i", func(g cache.Config) trace.FetchSink { return baseline.NewMaLinksI(g) }},
	}
)

// costs are the unit costs the ledger prices a repeat with, in ns.
type costs struct {
	simNs                         map[string]float64 // per instruction, by Workload.ISA
	encode, spillWrite, spillRead float64            // per event
	decodeFetch, decodeData       float64            // per event of the stream
	dataShare                     float64            // data events over all events, paper captures
	fanFetch, fanData             float64            // per delivery, beyond decode (suite.TraceCache.FanOut)
	tee8, power                   float64            // per event through the 8 live sinks; per Compute
	key, cacheGet, cachePut       float64            // explore result cache, per point
	storePut, storeGet            float64            // serve store, per point
	journal                       float64            // serve journal, per fsynced record
	sweep                         float64            // serve, per sweep beyond its store reads and journal records
	checkNs                       map[string]float64 // Workload.Check, per timed workload
	checkMean                     float64            // for workloads the layer pass did not time
	events                        map[string][2]int  // fetch and data events of every captured workload
	instrs                        map[string]uint64
}

// capture prices executing, checking and capturing one workload, plus
// spilling its trace when spill is set.
func (c *costs) capture(name, isa string, instrs uint64, events [2]int, spill bool) float64 {
	per := c.encode
	if spill {
		per += c.spillWrite
	}
	check, ok := c.checkNs[name]
	if !ok {
		check = c.checkMean
	}
	return float64(instrs)*c.simNs[isa] + check + float64(events[0]+events[1])*per
}

// captures prices capturing every workload of a grid.
func (c *costs) captures(ws []workloads.Workload, pts []explore.PointResult, spill bool) float64 {
	byName := map[string]*explore.PointResult{}
	for i := range pts {
		byName[pts[i].Workload] = &pts[i]
	}
	var ns float64
	for _, w := range ws {
		pr := byName[w.Name]
		ev, ok := c.events[w.Name]
		if !ok {
			// Fetch events are cycles; a D-cache point's accesses are the
			// data events.
			ev = [2]int{int(pr.Cycles), int(pr.Techs[0].Stats.Accesses)}
		}
		ns += c.capture(w.Name, w.ISA, pr.Instrs, ev, spill)
	}
	return ns
}

// fanOut prices a grid's batched replay: one decode of the swept stream per
// pass, the deliveries, and pricing every technique of every point.
func (c *costs) fanOut(g *explore.Grid) float64 {
	dec, fan := c.decodeData, c.fanData
	var stream float64
	seen := map[string]bool{}
	for i := range g.Points {
		pr := &g.Points[i]
		if seen[pr.Workload] {
			continue
		}
		seen[pr.Workload] = true
		if g.Space.Domain == suite.Fetch {
			stream += float64(pr.Cycles)
		} else {
			stream += float64(pr.Techs[0].Stats.Accesses)
		}
	}
	if g.Space.Domain == suite.Fetch {
		dec, fan = c.decodeFetch, c.fanFetch
	}
	passesPerWorkload := float64(g.Traces.FanOutPasses) / float64(max(len(seen), 1))
	techs := len(g.Space.TagEntries)*len(g.Space.SetEntries) + 1
	return stream*passesPerWorkload*dec + float64(g.Traces.FanOutDeliveries)*fan +
		float64(len(g.Points)*techs)*c.power
}

func (p *paperLive) pointsPerPass() float64 { return 1 } // one live execution per benchmark

func (g *geoSweep) pointsPerPass() float64 { return gridPointsPerPass(g.grids) }

func (s *synthCapture) pointsPerPass() float64 { return gridPointsPerPass(s.cold) }

func (s *serveMix) pointsPerPass() float64 {
	return float64(s.stats.Traces.Replays) / float64(max(s.stats.Traces.FanOutPasses, 1))
}

func gridPointsPerPass(grids []*explore.Grid) float64 {
	var pts, passes int
	for _, g := range grids {
		pts += g.Traces.Replays
		passes += g.Traces.FanOutPasses
	}
	return float64(pts) / float64(max(passes, 1))
}

// traced runs the workload once at the timed parallelism and once
// single-threaded, then the layer pass, and reports the per-layer metrics.
// Spans go to spansPath.
func traced(ctx context.Context, e *env, name string, r runner, seconds float64, spansPath string, rep *childReport) error {
	t := &tracer{workload: name, t0: time.Now()}
	// The daemon's tier counts come from a repeat as timed: joins need
	// concurrent clients.
	rp, err := r.run(ctx, e.par, 1)
	if err != nil {
		return err
	}
	rep.Attempted, rep.Failed = rp.points, r.check(ctx)
	st, daemon := serve.ServerStats{}, false
	if s, ok := r.(*serveMix); ok {
		st, daemon = s.stats, true
	}
	if err := t.do("workload", "run.j1", func() (int64, error) {
		var err error
		rp, err = r.run(ctx, 1, 2)
		return int64(rp.points), err
	}); err != nil {
		return err
	}
	rep.Attempted += rp.points
	rep.Failed += r.check(ctx)
	lp := &layerPass{t: t, e: e, in: r.inputs(), slice: time.Duration(seconds * float64(time.Second) / 100)}
	if err := t.do("bench", "layers", func() (int64, error) { return 1, lp.run(ctx) }); err != nil {
		return err
	}
	m := lp.metrics()
	c := lp.costs()
	predicted := r.predict(c)
	m["unattributed_frac"] = metric{(rp.wall.Seconds() - predicted.Seconds()) / rp.wall.Seconds(), "ratio"}
	fmt.Fprintf(os.Stderr, "bench: %s: j1 repeat %.3fs, layers account for %.3fs\n",
		name, rp.wall.Seconds(), predicted.Seconds())
	m["explore.points_per_pass"] = metric{r.pointsPerPass(), "count"}
	if !daemon {
		st = lp.serveStats
	}
	pts := float64(max(st.Points, 1))
	m["serve.simulated_frac"] = metric{float64(st.Simulations) / pts, "ratio"}
	m["serve.store_hit_frac"] = metric{float64(st.StoreHits) / pts, "ratio"}
	m["serve.join_frac"] = metric{float64(st.DedupJoins) / pts, "ratio"}
	m["serve.sims_per_unique_point"] = metric{float64(st.Simulations) / float64(max(st.Store.ResultEntries, 1)), "ratio"}
	m["serve.decodes_per_simulated_point"] = metric{float64(st.Traces.FanOutPasses) / float64(max(st.Simulations, 1)), "ratio"}
	rep.Layers = m

	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, e.seed, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(spansPath, blob, 0o644)
}

// layerPass is the traced calls into every layer, single-threaded.
type layerPass struct {
	t     *tracer
	e     *env
	in    layerInputs
	slice time.Duration // minimum timed span for calls repeated to get a reading

	tc         *suite.TraceCache
	ownEvents  int64 // events of the workload's own captures
	ownInstrs  uint64
	ownBytes   int64
	events     map[string][2]int
	instrs     map[string]uint64
	sample     *suite.Instance // a priced instance for power.Compute
	sampleCyc  uint64
	results    []*explore.PointResult // from serve.simulate_point, reused by the cache layers
	checkNs    map[string]float64
	hitSweeps  int64
	hitRecords int64 // journal records the all-hit probe sweeps wrote
	serveStats serve.ServerStats
}

func (lp *layerPass) run(ctx context.Context) error {
	lp.tc = suite.NewTraceCache()
	lp.events, lp.instrs = map[string][2]int{}, map[string]uint64{}
	for _, step := range []func(context.Context) error{
		lp.asm, lp.sim, lp.traceLayer, lp.controllers, lp.power, lp.suiteFanOut, lp.serve, lp.explore,
	} {
		if err := step(ctx); err != nil {
			return err
		}
	}
	return nil
}

func countLines(srcs []string) int64 {
	var n int64
	for _, s := range srcs {
		n += int64(strings.Count(s, "\n"))
	}
	return n
}

func (lp *layerPass) asm(context.Context) error {
	for _, isa := range []struct {
		name     string
		ws       []workloads.Workload
		prologue string
		assemble func(...string) (*asm.Program, error)
	}{
		{"asm.frvl", lp.in.frvl, workloads.Prologue(), asm.Assemble},
		{"asm.rv32", lp.in.rv32, workloads.PrologueRV32(), asm.AssembleRV32},
	} {
		if err := lp.t.do("asm", isa.name, func() (int64, error) {
			return repeatFor(lp.slice, func() (int64, error) {
				var n int64
				for _, w := range isa.ws {
					srcs := append([]string{isa.prologue}, w.Sources...)
					if _, err := isa.assemble(srcs...); err != nil {
						return n, err
					}
					n += countLines(srcs)
				}
				return n, nil
			})
		}); err != nil {
			return err
		}
	}
	return lp.t.do("asm", "workloads.spec_resolve", func() (int64, error) {
		return repeatFor(lp.slice, func() (int64, error) {
			for _, name := range lp.in.names {
				if _, err := workloads.ExpandByName(name); err != nil {
					return 0, err
				}
			}
			return int64(len(lp.in.names)), nil
		})
	})
}

func maxInstrs(w workloads.Workload) uint64 {
	if w.MaxInstrs != 0 {
		return w.MaxInstrs
	}
	return workloads.DefaultMaxInstrs
}

// sim runs every program with no sinks attached, then times the workload's
// check of the halted machine against its Go reference.
func (lp *layerPass) sim(ctx context.Context) error {
	lp.checkNs = map[string]float64{}
	for _, w := range append(append([]workloads.Workload{}, lp.in.frvl...), lp.in.rv32...) {
		p, err := w.Build()
		if err != nil {
			return err
		}
		var halted *sim.CPU
		name := "sim.frvl"
		if w.ISA == workloads.ISARV32 {
			name = "sim.rv32"
		}
		if err := lp.t.do("sim", name, func() (int64, error) {
			if w.ISA == workloads.ISARV32 {
				c := sim.NewRV32()
				c.LoadProgram(p, workloads.StackTop)
				err := c.RunContext(ctx, maxInstrs(w))
				halted = c.AsCPU()
				return int64(c.Instrs), err
			}
			halted = sim.New()
			halted.LoadProgram(p, workloads.StackTop)
			err := halted.RunContext(ctx, maxInstrs(w))
			return int64(halted.Instrs), err
		}); err != nil {
			return err
		}
		t0 := time.Now()
		if err := lp.t.do("sim", "workloads.check", func() (int64, error) { return 1, w.Check(halted, p) }); err != nil {
			return err
		}
		lp.checkNs[w.Name] = float64(time.Since(t0))
	}
	return nil
}

// capture executes w into the trace cache once and records its counts.
func (lp *layerPass) capture(ctx context.Context, name string, w workloads.Workload) (suite.Capture, error) {
	var c suite.Capture
	err := lp.t.do("trace", name, func() (int64, error) {
		var err error
		c, err = lp.tc.Capture(ctx, w, 0)
		if err != nil {
			return 0, err
		}
		return int64(c.Buf.Len()), nil
	})
	lp.events[w.Name] = [2]int{c.Buf.NumFetches(), c.Buf.NumDatas()}
	lp.instrs[w.Name] = c.Instrs
	return c, err
}

// traceLayer times the column codec on the workload's own captures:
// encode, spill write and read, decode, and fan-out to eight null sinks.
func (lp *layerPass) traceLayer(ctx context.Context) error {
	for _, w := range append(append([]workloads.Workload{}, lp.in.frvl...), lp.in.rv32...) {
		c, err := lp.capture(ctx, "trace.capture", w)
		if err != nil {
			return err
		}
		buf, n := c.Buf, int64(c.Buf.Len())
		lp.ownEvents += n
		lp.ownInstrs += c.Instrs
		lp.ownBytes += buf.EncodedBytes()
		fs, ds := buf.Fetches(), buf.Datas()
		if err := lp.t.do("trace", "trace.encode", func() (int64, error) {
			nb := new(trace.Buffer)
			for _, ev := range fs {
				nb.OnFetch(ev)
			}
			for _, ev := range ds {
				nb.OnData(ev)
			}
			return n, nil
		}); err != nil {
			return err
		}
		var spill bytes.Buffer
		if err := lp.t.do("trace", "trace.spill_write", func() (int64, error) {
			_, err := buf.WriteTo(&spill)
			return n, err
		}); err != nil {
			return err
		}
		if err := lp.t.do("trace", "trace.spill_read", func() (int64, error) {
			_, err := trace.ReadBuffer(bytes.NewReader(spill.Bytes()))
			return n, err
		}); err != nil {
			return err
		}
		if err := lp.decode(ctx, "trace", buf); err != nil {
			return err
		}
		pairs := make([]trace.SinkPair, 8)
		for i := range pairs {
			pairs[i] = trace.SinkPair{Fetch: nullSink{}, Data: nullSink{}}
		}
		if err := lp.t.do("trace", "trace.fanout8", func() (int64, error) {
			return n, buf.ReplayAll(ctx, pairs)
		}); err != nil {
			return err
		}
	}
	return nil
}

// decode times replaying each stream into one null sink.
func (lp *layerPass) decode(ctx context.Context, prefix string, buf *trace.Buffer) error {
	if err := lp.t.do("trace", prefix+".decode.fetch", func() (int64, error) {
		return int64(buf.NumFetches()), buf.ReplayAll(ctx, []trace.SinkPair{{Fetch: nullSink{}}})
	}); err != nil {
		return err
	}
	return lp.t.do("trace", prefix+".decode.data", func() (int64, error) {
		return int64(buf.NumDatas()), buf.ReplayAll(ctx, []trace.SinkPair{{Data: nullSink{}}})
	})
}

// controllers times each controller alone, then the eight standard
// techniques fed live through the tees and batched through ReplayAll, over
// the paper captures at the paper's geometry.
func (lp *layerPass) controllers(ctx context.Context) error {
	geo := cache.FRV32K
	for _, w := range lp.e.cfg.paper() {
		c, err := lp.capture(ctx, "ctl.capture", w)
		if err != nil {
			return err
		}
		buf := c.Buf
		if err := lp.decode(ctx, "ctl", buf); err != nil {
			return err
		}
		for _, dc := range dControllers {
			s := dc.new(geo)
			if err := lp.t.do("ctl", dc.name, func() (int64, error) {
				return int64(buf.NumDatas()), buf.ReplayAll(ctx, []trace.SinkPair{{Data: s}})
			}); err != nil {
				return err
			}
		}
		for _, ic := range iControllers {
			s := ic.new(geo)
			if err := lp.t.do("ctl", ic.name, func() (int64, error) {
				return int64(buf.NumFetches()), buf.ReplayAll(ctx, []trace.SinkPair{{Fetch: s}})
			}); err != nil {
				return err
			}
		}
		n := int64(buf.Len())
		fs, ds := buf.Fetches(), buf.Datas()
		var fetch []trace.FetchSink
		var data []trace.DataSink
		for _, tech := range suite.Techniques() {
			inst := tech.New(geo)
			if inst.Fetch != nil {
				fetch = append(fetch, inst.Fetch)
			} else {
				data = append(data, inst.Data)
			}
		}
		ft, dt := trace.FetchTee(fetch...), trace.DataTee(data...)
		if err := lp.t.do("ctl", "ctl.tee8", func() (int64, error) {
			for _, ev := range fs {
				ft.OnFetch(ev)
			}
			for _, ev := range ds {
				dt.OnData(ev)
			}
			return n, nil
		}); err != nil {
			return err
		}
		var pairs []trace.SinkPair
		for _, tech := range suite.Techniques() {
			inst := tech.New(geo)
			pairs = append(pairs, trace.SinkPair{Fetch: inst.Fetch, Data: inst.Data})
			lp.sample, lp.sampleCyc = &inst, c.Cycles
		}
		if err := lp.t.do("ctl", "ctl.batch8", func() (int64, error) {
			return n, buf.ReplayAll(ctx, pairs)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (lp *layerPass) power(context.Context) error {
	st, m := lp.sample.Stats, lp.sample.Model
	return lp.t.do("power", "power.compute", func() (int64, error) {
		return repeatFor(lp.slice, func() (int64, error) {
			var sink power.Breakdown
			for i := 0; i < 1000; i++ {
				sink = power.Compute(st, lp.sampleCyc+uint64(i), m)
			}
			if sink.TotalMW() < 0 {
				return 0, fmt.Errorf("negative power")
			}
			return 1000, nil
		})
	})
}

// suiteFanOut replays geo-sweep's shards — every geometry and technique of
// one workload in one pass — through suite.TraceCache.FanOut.
func (lp *layerPass) suiteFanOut(ctx context.Context) error {
	for _, g := range []struct {
		name  string
		space explore.Space
	}{{"suite.fanout.data", lp.e.cfg.geoD}, {"suite.fanout.fetch", lp.e.cfg.geoI}} {
		sp := g.space
		sp.Workloads = lp.e.cfg.paper()
		sp, err := sp.Normalize()
		if err != nil {
			return err
		}
		geos, techs := sp.Geometries(), sp.Techniques()
		for _, w := range sp.Workloads {
			var pairs []trace.SinkPair
			for _, geo := range geos {
				for _, tech := range techs {
					inst := tech.New(geo)
					pairs = append(pairs, trace.SinkPair{Fetch: inst.Fetch, Data: inst.Data})
				}
			}
			if err := lp.t.do("suite", g.name, func() (int64, error) {
				c, err := lp.tc.FanOut(ctx, w, 0, pairs, len(geos))
				if err != nil {
					return 0, err
				}
				stream := c.Buf.NumDatas()
				if sp.Domain == suite.Fetch {
					stream = c.Buf.NumFetches()
				}
				return int64(stream * len(pairs)), nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// referenceSweep is the sweep serve.simulate_point and the store layer
// time: the paper workloads at 32KB 2-way with the 4-entry MAB list.
func (lp *layerPass) referenceSweep() serve.SweepRequest {
	g := cache.FRV32K
	return serve.SweepRequest{Domain: "data", Sets: []int{g.Sets}, Ways: []int{g.Ways}, LineBytes: []int{g.LineBytes},
		TagEntries: []int{2}, SetEntries: []int{4, 8, 16, 32}, Workloads: names(lp.e.cfg.paper())}
}

// serve times explore.SimulatePoint on warm traces, a daemon serving the
// workload's probe sweeps (cold, resubmitted, then all store hits on
// fresh daemons over the warm store), and the store alone.
func (lp *layerPass) serve(ctx context.Context) error {
	req := lp.referenceSweep()
	sp, err := req.Space()
	if err != nil {
		return err
	}
	for _, pt := range sp.Points() {
		if _, err := lp.tc.Capture(ctx, pt.Workload, 0); err != nil {
			return err
		}
		if err := lp.t.do("serve", "serve.simulate_point", func() (int64, error) {
			pr, err := explore.SimulatePoint(ctx, sp, pt, lp.tc)
			lp.results = append(lp.results, pr)
			return 1, err
		}); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(lp.e.dir, "layer-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i := 0; i < 4; i++ {
		st, err := lp.probeDaemon(ctx, dir, i == 0)
		if err != nil {
			return err
		}
		// The probe daemons' traffic stands in for workloads that run none.
		if i == 0 {
			lp.serveStats = st
		} else {
			lp.serveStats.Points += st.Points
			lp.serveStats.StoreHits += st.StoreHits
		}
	}

	st, err := serve.OpenStore(filepath.Join(dir, "probe"), 0)
	if err != nil {
		return err
	}
	keys := lp.keys(sp)
	if err := lp.t.do("serve", "serve.store_put", func() (int64, error) {
		for i, pr := range lp.results {
			if err := st.Put(keys[i], pr); err != nil {
				return int64(i), err
			}
		}
		return int64(len(lp.results)), nil
	}); err != nil {
		return err
	}
	if err := lp.t.do("serve", "serve.store_get", func() (int64, error) {
		return repeatFor(lp.slice, func() (int64, error) {
			for _, k := range keys {
				if _, ok := st.Get(k); !ok {
					return 0, fmt.Errorf("stored point %s missing", k)
				}
			}
			return int64(len(keys)), nil
		})
	}); err != nil {
		return err
	}
	return lp.journal(dir)
}

// journal times the daemon journal's unit of work: one fsynced append of a
// record the size of a completed point's, through the same fault-layer call
// the daemon makes (with no faults injected).
func (lp *layerPass) journal(dir string) error {
	f, err := os.OpenFile(filepath.Join(dir, "probe.wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	record := bytes.Repeat([]byte{'j'}, 96)
	return lp.t.do("serve", "serve.journal_append", func() (int64, error) {
		return repeatFor(lp.slice, func() (int64, error) {
			return 1, fault.FS{}.AppendSync(fault.SiteJournalAppend, f, record)
		})
	})
}

// probeDaemon opens a daemon on dir and runs the probe sweeps through it:
// the cold daemon also times resubmitting them, the later ones serve every
// point from the store.
func (lp *layerPass) probeDaemon(ctx context.Context, dir string, cold bool) (serve.ServerStats, error) {
	srv, err := serve.New(serve.Config{StoreDir: dir, Parallelism: 1})
	if err != nil {
		return serve.ServerStats{}, err
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	cl := client.New(ts.URL)
	name := "serve.hit_sweep"
	if cold {
		name = "serve.cold_sweep"
	}
	var records int64
	for _, req := range lp.in.sweeps {
		if err := lp.t.do("serve", name, func() (int64, error) {
			st, err := cl.Run(ctx, req, nil)
			// A sweep journals its submission, each point and its end.
			records += int64(st.Metrics.Points) + 2
			return int64(st.Metrics.Points), err
		}); err != nil {
			return serve.ServerStats{}, err
		}
	}
	if !cold {
		lp.hitSweeps += int64(len(lp.in.sweeps))
		lp.hitRecords += records
		return srv.Stats(), nil
	}
	err = lp.t.do("serve", "serve.submit", func() (int64, error) {
		return repeatFor(lp.slice, func() (int64, error) {
			for _, req := range lp.in.sweeps {
				if _, err := cl.Submit(ctx, req); err != nil {
					return 0, err
				}
			}
			return int64(len(lp.in.sweeps)), nil
		})
	})
	return srv.Stats(), err
}

func (lp *layerPass) keys(sp explore.Space) []string {
	var out []string
	for _, pt := range sp.Points() {
		out = append(out, explore.KeyWorkload(sp.Domain, pt.Geometry, pt.Workload, sp.PacketBytes, sp.MABs()))
	}
	return out
}

// explore times the result cache: keying the workload's own points, probing
// an empty cache, and publishing results.
func (lp *layerPass) explore(context.Context) error {
	sp := lp.in.space
	var keys []string
	if err := lp.t.do("explore", "explore.key", func() (int64, error) {
		return repeatFor(lp.slice, func() (int64, error) {
			keys = lp.keys(sp)
			return int64(len(keys)), nil
		})
	}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(lp.e.dir, "layer-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dc, err := explore.NewDirCache(dir)
	if err != nil {
		return err
	}
	if err := lp.t.do("explore", "explore.cache_get", func() (int64, error) {
		return repeatFor(lp.slice, func() (int64, error) {
			for _, k := range keys {
				if _, ok := dc.Get(k); ok {
					return 0, fmt.Errorf("empty cache hit %s", k)
				}
			}
			return int64(len(keys)), nil
		})
	}); err != nil {
		return err
	}
	return lp.t.do("explore", "explore.cache_put", func() (int64, error) {
		for i, pr := range lp.results {
			if err := dc.Put(fmt.Sprintf("probe-%d", i), pr); err != nil {
				return int64(i), err
			}
		}
		return int64(len(lp.results)), nil
	})
}

// costs turns the spans into the ledger's unit costs.
func (lp *layerPass) costs() *costs {
	a := lp.t.aggregate()
	per := func(name string) float64 { return a[name].selfNS / float64(max(a[name].count, 1)) }
	decF, decD := per("ctl.decode.fetch"), per("ctl.decode.data")
	c := &costs{
		simNs:       map[string]float64{"": per("sim.frvl"), workloads.ISARV32: per("sim.rv32")},
		encode:      per("trace.encode"),
		spillWrite:  per("trace.spill_write"),
		spillRead:   per("trace.spill_read"),
		decodeFetch: decF,
		decodeData:  decD,
		dataShare:   float64(a["ctl.decode.data"].count) / float64(max(a["ctl.decode.data"].count+a["ctl.decode.fetch"].count, 1)),
		tee8:        per("ctl.tee8"),
		power:       per("power.compute"),
		key:         per("explore.key"),
		cacheGet:    per("explore.cache_get"),
		cachePut:    per("explore.cache_put"),
		storePut:    per("serve.store_put"),
		storeGet:    per("serve.store_get"),
		journal:     per("serve.journal_append"),
		checkNs:     lp.checkNs,
		events:      lp.events,
		instrs:      lp.instrs,
	}
	// What an all-hit sweep costs beyond its store reads and journal
	// records: the HTTP round trips, the SSE stream and the scheduling. No
	// public entry point times these alone, so this one is fitted.
	hit := a["serve.hit_sweep"]
	c.sweep = (hit.selfNS - float64(hit.count)*c.storeGet - float64(lp.hitRecords)*c.journal) / float64(max(lp.hitSweeps, 1))
	for _, ns := range lp.checkNs {
		c.checkMean += ns / float64(len(lp.checkNs))
	}
	// Per-delivery fan-out cost net of decoding the stream once per pass.
	net := func(name string, events, dec float64) float64 {
		return (a[name].selfNS - events*dec) / float64(max(a[name].count, 1))
	}
	var fetchEv, dataEv float64
	for _, w := range lp.e.cfg.paper() {
		fetchEv += float64(lp.events[w.Name][0])
		dataEv += float64(lp.events[w.Name][1])
	}
	c.fanData = net("suite.fanout.data", dataEv, decD)
	c.fanFetch = net("suite.fanout.fetch", fetchEv, decF)
	return c
}

// metrics are the per-layer metrics of BENCHMARK.json.
func (lp *layerPass) metrics() map[string]metric {
	a := lp.t.aggregate()
	per := func(name string) float64 { return a[name].selfNS / float64(max(a[name].count, 1)) }
	m := map[string]metric{
		"asm.frvl_us_per_line":           {per("asm.frvl") / 1e3, "us"},
		"asm.rv32_us_per_line":           {per("asm.rv32") / 1e3, "us"},
		"workloads.spec_resolve_us":      {per("workloads.spec_resolve") / 1e3, "us"},
		"sim.frvl_minstr_per_s":          {1e3 / per("sim.frvl"), "Minstr/s"},
		"sim.rv32_minstr_per_s":          {1e3 / per("sim.rv32"), "Minstr/s"},
		"sim.events_per_kinstr":          {1e3 * float64(lp.ownEvents) / float64(max(lp.ownInstrs, 1)), "count"},
		"trace.encode_ns_per_event":      {per("trace.encode"), "ns"},
		"trace.spill_write_ns_per_event": {per("trace.spill_write"), "ns"},
		"trace.spill_read_ns_per_event":  {per("trace.spill_read"), "ns"},
		"trace.bytes_per_event":          {float64(lp.ownBytes) / float64(max(lp.ownEvents, 1)), "B/event"},
		"ctl.tee8_ns_per_event":          {per("ctl.tee8"), "ns"},
		"ctl.batch8_ns_per_event":        {per("ctl.batch8"), "ns"},
		"power.compute_ns":               {per("power.compute"), "ns"},
		"suite.fanout_ns_per_delivery":   {per("suite.fanout.data"), "ns"},
		"explore.key_us":                 {per("explore.key") / 1e3, "us"},
		"explore.cache_get_us":           {per("explore.cache_get") / 1e3, "us"},
		"explore.cache_put_ms":           {per("explore.cache_put") / 1e6, "ms"},
		"serve.simulate_point_ms":        {per("serve.simulate_point") / 1e6, "ms"},
		"serve.submit_ms":                {per("serve.submit") / 1e6, "ms"},
		"serve.hit_point_ms":             {per("serve.hit_sweep") / 1e6, "ms"},
		"serve.store_get_us":             {per("serve.store_get") / 1e3, "us"},
		"serve.store_put_ms":             {per("serve.store_put") / 1e6, "ms"},
		"serve.journal_append_ms":        {per("serve.journal_append") / 1e6, "ms"},
	}
	dec := a["trace.decode.fetch"].selfNS + a["trace.decode.data"].selfNS
	events := float64(a["trace.decode.fetch"].count + a["trace.decode.data"].count)
	m["trace.decode_ns_per_event"] = metric{dec / max(events, 1), "ns"}
	m["trace.fanout_ns_per_delivery"] = metric{a["trace.fanout8"].selfNS / max(8*float64(a["trace.fanout8"].count), 1), "ns"}
	decF, decD := per("ctl.decode.fetch"), per("ctl.decode.data")
	for _, dc := range dControllers {
		m[dc.name] = metric{per(dc.name) - decD, "ns"}
	}
	for _, ic := range iControllers {
		m[ic.name] = metric{per(ic.name) - decF, "ns"}
	}
	return m
}
