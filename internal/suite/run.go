package suite

import (
	"context"
	"fmt"
	"sync"

	"waymemo/internal/cache"
	"waymemo/internal/pool"
	"waymemo/internal/power"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// TechResult is one technique's outcome on one benchmark: the counters the
// controller accumulated and the power model that prices them.
type TechResult struct {
	Stats *stats.Counters
	Model power.Model
}

// BenchResult holds one benchmark's counters for every technique that ran.
type BenchResult struct {
	Name   string
	Cycles uint64
	Instrs uint64
	// D and I map technique IDs to their results, split by domain.
	D map[ID]TechResult
	I map[ID]TechResult
}

// DPower prices the named data-cache technique over this benchmark.
func (b BenchResult) DPower(id ID) power.Breakdown {
	tr := b.D[id]
	return power.Compute(tr.Stats, b.Cycles, tr.Model)
}

// IPower prices the named instruction-cache technique over this benchmark.
func (b BenchResult) IPower(id ID) power.Breakdown {
	tr := b.I[id]
	return power.Compute(tr.Stats, b.Cycles, tr.Model)
}

// Results is the full suite outcome. Benchmarks appear in the order the
// workloads were given, independent of the parallelism that produced them.
type Results struct {
	Geometry   cache.Config
	Benchmarks []BenchResult
}

// Progress reports one benchmark starting (Done=false) or finishing
// (Done=true). Callbacks are serialized by the runner, so handlers need no
// locking of their own.
type Progress struct {
	Workload string
	Index    int // position in the workload list
	Total    int
	Done     bool
}

// options collects the Run configuration; see the With* constructors.
type options struct {
	workloads     []workloads.Workload
	workloadsSet  bool
	techniques    []Technique
	techniquesSet bool
	registry      *Registry
	geometry      cache.Config
	parallelism   int
	packetBytes   uint32
	progress      func(Progress)
	traceCache    *TraceCache
}

// Option configures Run.
type Option func(*options)

// WithWorkloads selects the benchmarks to run (default: the paper's seven,
// workloads.All()). An explicitly empty selection runs nothing.
func WithWorkloads(ws ...workloads.Workload) Option {
	return func(o *options) { o.workloads, o.workloadsSet = ws, true }
}

// WithTechniques selects the exact techniques to attach, replacing the
// registry default. The values need not be registered anywhere.
func WithTechniques(ts ...Technique) Option {
	return func(o *options) { o.techniques, o.techniquesSet = ts, true }
}

// WithRegistry selects the registry whose techniques run by default
// (default: the package registry). Ignored when WithTechniques is given.
func WithRegistry(r *Registry) Option {
	return func(o *options) { o.registry = r }
}

// WithGeometry sets the cache geometry every technique is instantiated for
// (default: the paper's 32KB 2-way cache.FRV32K).
func WithGeometry(geo cache.Config) Option {
	return func(o *options) { o.geometry = geo }
}

// WithParallelism bounds the number of benchmarks simulated concurrently
// (default and n <= 0: GOMAXPROCS). Results are identical at every level.
func WithParallelism(n int) Option {
	return func(o *options) { o.parallelism = n }
}

// WithPacketBytes overrides the fetch-packet size (default 0: the 8-byte
// VLIW packet); used by the fetch-width ablation.
func WithPacketBytes(pb uint32) Option {
	return func(o *options) { o.packetBytes = pb }
}

// WithProgress installs a callback invoked as benchmarks start and finish.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) { o.progress = fn }
}

// WithTraceCache serves benchmarks from tc's execute-once / replay-many
// engine (default: none, every benchmark executes live): each (workload,
// packetBytes) pair is simulated once with its event streams captured, and
// this and every later Run sharing tc replays the capture into the selected
// techniques instead of re-executing. Counters and power are bit-identical
// to a live run. The capturing execution validates the workload's Check;
// replays trust the capture and skip it.
func WithTraceCache(tc *TraceCache) Option {
	return func(o *options) { o.traceCache = tc }
}

// Run executes every selected workload with every selected technique
// attached (Attach), one simulator pass per benchmark, fanning the passes
// out over a worker pool. Each benchmark gets fresh controllers, so runs
// are deterministic and independent of parallelism; Results.Benchmarks is
// ordered like the workload list. Run returns the first error encountered
// (cancelling the remaining work), or ctx.Err() if the context ends first.
func Run(ctx context.Context, opts ...Option) (*Results, error) {
	o := options{
		registry: defaultRegistry,
		geometry: cache.FRV32K,
	}
	for _, opt := range opts {
		opt(&o)
	}
	ws := o.workloads
	if !o.workloadsSet {
		ws = workloads.All()
	}
	techs := o.techniques
	if !o.techniquesSet {
		techs = o.registry.Techniques()
	}
	seen := map[regKey]bool{}
	for _, t := range techs {
		if err := t.validate(); err != nil {
			return nil, err
		}
		k := regKey{t.Domain, t.ID}
		if seen[k] {
			return nil, fmt.Errorf("suite: duplicate technique %s/%q", t.Domain, t.ID)
		}
		seen[k] = true
	}
	if err := o.geometry.Validate(); err != nil {
		return nil, err
	}

	var progressMu sync.Mutex
	report := func(p Progress) {
		if o.progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		o.progress(p)
	}

	results := make([]BenchResult, len(ws))
	err := pool.Run(ctx, len(ws), o.parallelism, func(runCtx context.Context, idx int) error {
		report(Progress{Workload: ws[idx].Name, Index: idx, Total: len(ws)})
		br, err := runOne(runCtx, ws[idx], techs, o)
		if err != nil {
			return err
		}
		results[idx] = br
		report(Progress{Workload: ws[idx].Name, Index: idx, Total: len(ws), Done: true})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Results{Geometry: o.geometry, Benchmarks: results}, nil
}

// runOne attaches every technique fresh (Attach: one shared controller
// per domain for the baseline, the MAB techniques and the observer, any
// other technique alone) and drives one benchmark through them.
func runOne(ctx context.Context, w workloads.Workload, techs []Technique, o options) (BenchResult, error) {
	br := BenchResult{Name: w.Name, D: map[ID]TechResult{}, I: map[ID]TechResult{}}
	pairs, res, err := Attach(o.geometry, techs)
	if err != nil {
		return br, err
	}
	for i, t := range techs {
		if t.Domain == Data {
			br.D[t.ID] = res[i]
		} else {
			br.I[t.ID] = res[i]
		}
	}
	br.Cycles, br.Instrs, err = Drive(ctx, w, o.packetBytes, pairs, o.traceCache, 1)
	return br, err
}

// Drive feeds one execution of w's event streams, at fetch-packet size
// packet, to every pair and returns the execution's cycle and instruction
// counts. A pair is one controller, which may serve several techniques
// (see Attach). With a trace cache it is one batched fan-out pass over the
// workload's capture (tc.FanOut, serving runs benchmark runs), so the trace
// streams through memory once for the whole sink set; with tc nil it is one
// live simulation whose events a trace.Stager delivers to every sink in
// blocks, the same way. The sinks' counters are bit-identical either way.
func Drive(ctx context.Context, w workloads.Workload, packet uint32, pairs []trace.SinkPair, tc *TraceCache, runs int) (cycles, instrs uint64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if tc != nil {
		c, err := tc.FanOut(ctx, w, packet, pairs, runs)
		return c.Cycles, c.Instrs, err
	}
	st := trace.NewStager(pairs)
	fetch, data := st.Sinks()
	c, err := workloads.RunPacketContext(ctx, w, fetch, data, packet)
	if err != nil {
		return 0, 0, err
	}
	st.Flush()
	return c.Cycles, c.Instrs, nil
}
