package explore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/pool"
	"waymemo/internal/power"
	"waymemo/internal/stats"
	"waymemo/internal/suite"
	"waymemo/internal/synth"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// TechOutcome is one technique's measurement at one grid point: the raw
// counters and the priced power breakdown. TagEntries == 0 marks the
// conventional baseline.
type TechOutcome struct {
	// ID is the technique name ("original", "mab-2x8", ...).
	ID string `json:"id"`
	// TagEntries and SetEntries are the MAB size, zero for the baseline.
	TagEntries int `json:"tag_entries,omitempty"`
	SetEntries int `json:"set_entries,omitempty"`

	Stats stats.Counters  `json:"stats"`
	Power power.Breakdown `json:"power"`
}

// PointResult is one completed grid point — everything the analysis layer
// needs, and exactly what the result cache stores on disk.
type PointResult struct {
	Geometry cache.Config `json:"geometry"`
	Workload string       `json:"workload"`
	Cycles   uint64       `json:"cycles"`
	Instrs   uint64       `json:"instrs"`
	// Techs is ordered: the baseline first, then the MAB grid in space
	// order.
	Techs []TechOutcome `json:"techs"`
	// Cached reports whether this run loaded the point from the result
	// cache instead of simulating it.
	Cached bool `json:"-"`
}

// Grid is a completed sweep: every point of the space, in deterministic
// grid order, plus this run's memoization outcome.
type Grid struct {
	// Space is the normalized specification (defaults filled in).
	Space Space
	// Points holds one result per grid point, geometry-major then
	// workload, independent of worker scheduling.
	Points []PointResult
	// Hits and Misses count grid points served from the result cache
	// versus simulated during this run. Hits+Misses == len(Points).
	Hits, Misses int
	// Traces reports the execute-once / replay-many engine's work: with
	// trace sharing on (the default), Captures counts full simulator
	// executions (at most one per workload × packet size) and Replays the
	// grid points served by replaying a capture.
	Traces suite.TraceCacheStats
}

// Progress reports one grid point starting (Done=false) or finishing.
// Callbacks are serialized by the engine.
type Progress struct {
	Index    int // position in the grid
	Total    int
	Geometry cache.Config
	Workload string
	// Cached is meaningful when Done: the point came from the result
	// cache.
	Cached bool
	Done   bool
}

// options collects the Run configuration; see the With* constructors.
type options struct {
	cache        Cache
	cacheDir     string
	parallelism  int
	progress     func(Progress)
	noTraceShare bool
	traceDir     string
}

// Option configures Run.
type Option func(*options) error

// WithCache memoizes grid points in the given cache (default: none, every
// point simulates).
func WithCache(c Cache) Option {
	return func(o *options) error { o.cache = c; return nil }
}

// WithCacheDir memoizes grid points in a DirCache over dir; the directory
// is created if needed. It overrides WithCache. An empty dir is an error —
// silently running uncached would be the costlier surprise.
func WithCacheDir(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("explore: empty cache directory")
		}
		o.cacheDir = dir
		return nil
	}
}

// WithParallelism bounds the number of grid points simulated concurrently
// (default and n <= 0: GOMAXPROCS). Results are identical at every level.
func WithParallelism(n int) Option {
	return func(o *options) error { o.parallelism = n; return nil }
}

// WithProgress installs a callback invoked as grid points start and finish.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) error { o.progress = fn; return nil }
}

// WithTraceSharing toggles the execute-once / replay-many engine (default
// on): every workload is executed once per sweep and its captured event
// stream is replayed to all geometries of the grid, which is bit-identical
// to executing each point live (the replay golden test in internal/suite
// pins this) and several times faster on multi-geometry sweeps. Turning it
// off forces one full execution per grid point — useful only for
// benchmarking the engine itself.
func WithTraceSharing(on bool) Option {
	return func(o *options) error { o.noTraceShare = !on; return nil }
}

// WithTraceDir additionally spills captured traces to dir as WMTRACE2 files
// (created if needed), so a later sweep in a fresh process reloads them
// instead of executing at all. An empty dir is an error.
func WithTraceDir(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("explore: empty trace directory")
		}
		o.traceDir = dir
		return nil
	}
}

// Run expands the space into its grid and executes every point, fanning
// shards of points out over a worker pool. Every point carries the space's
// full technique list, so a point costs one pass over its workload's event
// stream regardless of how many MAB sizes are swept — and with trace
// sharing (the default), the workload executes only once: the first shard
// to need it captures its event streams, and every shard replays the
// capture into all of its points' techniques in one batched pass.
//
// With a result cache configured, points whose Key is already stored load
// instead of simulating, and newly simulated points are stored on
// completion — a warm cache re-runs an identical sweep without a single
// simulation (Grid.Misses == 0).
//
// Run returns the first error encountered (cancelling the remaining work),
// or ctx.Err() if the context ends first.
func Run(ctx context.Context, space Space, opts ...Option) (*Grid, error) {
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.cacheDir != "" {
		dc, err := NewDirCache(o.cacheDir)
		if err != nil {
			return nil, err
		}
		o.cache = dc
	}
	var tc *suite.TraceCache
	switch {
	case o.noTraceShare && o.traceDir != "":
		return nil, fmt.Errorf("explore: trace directory given but trace sharing disabled")
	case o.traceDir != "":
		var err error
		if tc, err = suite.NewDirTraceCache(o.traceDir); err != nil {
			return nil, err
		}
	case !o.noTraceShare:
		tc = suite.NewTraceCache()
	}
	s, err := space.normalized()
	if err != nil {
		return nil, err
	}
	pts := s.points()
	techs := s.techniques()
	mabs := s.MABs()

	var progressMu sync.Mutex
	report := func(p Progress) {
		if o.progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		o.progress(p)
	}

	results := make([]PointResult, len(pts))
	hits, misses, err := runShards(ctx, s, pts, techs, mabs, o, tc, report, results)
	if err != nil {
		return nil, err
	}
	g := &Grid{
		Space:  s,
		Points: results,
		Hits:   hits,
		Misses: misses,
	}
	if tc != nil {
		g.Traces = tc.Stats()
	}
	return g, nil
}

// fanPoint is one grid point awaiting simulation, with its result-cache
// key already computed by the probe phase (empty without a cache) so the
// shard worker stores the result without rehashing the inputs.
type fanPoint struct {
	pt  Point
	key string
}

// fanShard is one scheduling unit: a slice of one workload's uncached grid
// points whose technique sinks are all fed by a single pass over the
// workload's event stream (see simulateShard).
type fanShard struct {
	w   workloads.Workload
	pts []fanPoint
}

// maxShardPoints bounds how many grid points one shard instantiates at
// once, capping the controller state a single fan-out pass holds live.
// minShardPoints floors the split the other way: below four points per
// pass, the fixed cost of decoding the capture's compressed columns stops
// amortizing and the sweep degenerates toward one-replay-per-point, so the
// scheduler prefers fewer, fuller shards over perfectly even worker
// occupancy.
const (
	maxShardPoints = 64
	minShardPoints = 4
)

// runShards is the per-(workload, packet) scheduler: result-cache hits are
// served first without touching the trace engine, then each workload's
// remaining points are sharded across the worker pool and every shard
// simulates all of its points in one pass. Without a trace cache there is
// no capture to amortize, so every shard holds exactly one point and runs
// it live — the per-point parallelism and cost of executing each point on
// its own. Point results land at their grid index and every point gets its
// start/done progress pair.
func runShards(ctx context.Context, s Space, pts []Point, techs []suite.Technique,
	mabs []core.Config, o options, tc *suite.TraceCache,
	report func(Progress), results []PointResult) (int, int, error) {
	// Phase 1: serve result-cache hits serially — a fully warm cache
	// finishes the sweep without a single capture or replay.
	hits := 0
	missed := make(map[string][]fanPoint, len(s.Workloads))
	groups := 0
	for _, pt := range pts {
		if err := ctx.Err(); err != nil {
			return hits, 0, err
		}
		var key string
		if o.cache != nil {
			key = KeyWorkload(s.Domain, pt.Geometry, pt.Workload, s.PacketBytes, mabs)
			if pr, ok := o.cache.Get(key); ok && cachedPointValid(pr, pt, techs) {
				pr.Cached = true
				results[pt.Index] = *pr
				hits++
				report(Progress{Index: pt.Index, Total: len(pts), Geometry: pt.Geometry, Workload: pt.Workload.Name})
				report(Progress{Index: pt.Index, Total: len(pts), Geometry: pt.Geometry,
					Workload: pt.Workload.Name, Cached: true, Done: true})
				continue
			}
		}
		if len(missed[pt.Workload.Name]) == 0 {
			groups++
		}
		missed[pt.Workload.Name] = append(missed[pt.Workload.Name], fanPoint{pt: pt, key: key})
	}
	if groups == 0 {
		return hits, 0, nil
	}

	// Phase 2: shard each workload's missed points — enough shards to keep
	// every worker busy, few enough that each capture is streamed a handful
	// of times, and never more than maxShardPoints technique sets live per
	// pass; live sweeps get one point per shard. The boundaries depend only
	// on the grid and the parallelism, so results stay deterministic.
	par := o.parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	perGroup := (par + groups - 1) / groups
	var shards []fanShard
	for _, w := range s.Workloads {
		group := missed[w.Name]
		if len(group) == 0 {
			continue
		}
		k := perGroup
		if maxK := (len(group) + minShardPoints - 1) / minShardPoints; k > maxK {
			k = maxK
		}
		if minK := (len(group) + maxShardPoints - 1) / maxShardPoints; k < minK {
			k = minK
		}
		if tc == nil {
			k = len(group)
		}
		for _, r := range pool.Split(len(group), k) {
			shards = append(shards, fanShard{w: w, pts: group[r[0]:r[1]]})
		}
	}

	var misses atomic.Int64
	err := pool.Run(ctx, len(shards), o.parallelism, func(runCtx context.Context, idx int) error {
		sh := shards[idx]
		for _, fp := range sh.pts {
			report(Progress{Index: fp.pt.Index, Total: len(pts), Geometry: fp.pt.Geometry, Workload: fp.pt.Workload.Name})
		}
		prs, err := simulateShard(runCtx, s, sh.w, sh.pts, techs, mabs, tc)
		if err != nil {
			return err
		}
		for pi, fp := range sh.pts {
			pr := prs[pi]
			if o.cache != nil {
				if err := o.cache.Put(fp.key, pr); err != nil {
					return err
				}
			}
			results[fp.pt.Index] = *pr
			misses.Add(1)
			report(Progress{Index: fp.pt.Index, Total: len(pts), Geometry: fp.pt.Geometry,
				Workload: fp.pt.Workload.Name, Done: true})
		}
		return nil
	})
	return hits, int(misses.Load()), err
}

// simulateShard simulates pts, grid points of workload w, in one pass over
// w's event stream. Each point gets one way-memoized controller whose
// cache is shared by the baseline and one lane per MAB size: way
// memoization never changes hits, misses or evictions, so one cache model
// per point serves them all (see core.Lane). The controllers are fed
// through suite.Drive: a single batched fan-out replay of the workload's
// capture, or, when tc is nil, one live execution delivered in blocks.
// Either way each point is priced by assemblePoint, so live and replayed
// grids are byte-identical.
func simulateShard(ctx context.Context, s Space, w workloads.Workload, pts []fanPoint,
	techs []suite.Technique, mabs []core.Config, tc *suite.TraceCache) ([]*PointResult, error) {
	// Build the controllers only now, so the memory a sweep holds live is
	// bounded by the active shards, not the grid.
	outs := make([]pointCounters, len(pts))
	pairs := make([]trace.SinkPair, len(pts))
	for pi, fp := range pts {
		switch s.Domain {
		case suite.Data:
			d := core.NewDLanes(fp.pt.Geometry, mabs)
			pairs[pi], outs[pi] = trace.SinkPair{Data: d}, pointCounters{d.Baseline, d.Lanes}
		case suite.Fetch:
			ic := core.NewILanes(fp.pt.Geometry, mabs)
			pairs[pi], outs[pi] = trace.SinkPair{Fetch: ic}, pointCounters{ic.Baseline, ic.Lanes}
		default:
			return nil, fmt.Errorf("explore: invalid domain %d", s.Domain)
		}
	}
	cycles, instrs, err := suite.Drive(ctx, w, s.PacketBytes, pairs, tc, len(pts))
	if err != nil {
		return nil, err
	}
	prs := make([]*PointResult, len(pts))
	for pi, fp := range pts {
		prs[pi] = assemblePoint(fp.pt, techs, mabs, outs[pi], cycles, instrs)
	}
	return prs, nil
}

// pointCounters are one grid point's counters as its controller fills
// them: the conventional baseline's, and one lane per MAB size in space
// order.
type pointCounters struct {
	base  *stats.Counters
	lanes []core.Lane
}

// assemblePoint prices one grid point's freshly simulated counters into
// the PointResult the analysis layer and the result cache consume. The
// power models are those of the space's techniques: the bare array for the
// baseline, plus the synthesized MAB for each way-memoized one.
func assemblePoint(pt Point, techs []suite.Technique, mabs []core.Config,
	out pointCounters, cycles, instrs uint64) *PointResult {
	pr := &PointResult{
		Geometry: pt.Geometry,
		Workload: pt.Workload.Name,
		Cycles:   cycles,
		Instrs:   instrs,
		Techs:    make([]TechOutcome, 0, len(techs)),
	}
	array := suite.ArrayModel(pt.Geometry)
	for i := range techs {
		st, model := out.base, array
		to := TechOutcome{ID: string(techs[i].ID)}
		if i > 0 { // techs[0] is the baseline; the rest follow mabs order
			m := mabs[i-1]
			st = out.lanes[i-1].Stats
			to.TagEntries, to.SetEntries = m.TagEntries, m.SetEntries
			model.MAB = synth.Characterize(m.TagEntries, m.SetEntries)
		}
		to.Stats, to.Power = *st, power.Compute(st, cycles, model)
		pr.Techs = append(pr.Techs, to)
	}
	return pr
}

// PointMatches checks a stored result against the grid point it must
// answer for. The content hash already pins the inputs, but a tampered or
// hand-edited file can hold shape-valid JSON for the wrong point; anything
// that does not match the expected technique list degrades to a miss and
// is re-simulated rather than poisoning the analysis. Both explore.Run's
// result cache and the serve daemon's shared store gate their hits on it.
func PointMatches(pr *PointResult, pt Point, techs []suite.Technique) bool {
	return cachedPointValid(pr, pt, techs)
}

func cachedPointValid(pr *PointResult, pt Point, techs []suite.Technique) bool {
	if pr.Geometry != pt.Geometry || pr.Workload != pt.Workload.Name ||
		len(pr.Techs) != len(techs) {
		return false
	}
	for i, t := range techs {
		if pr.Techs[i].ID != string(t.ID) {
			return false
		}
	}
	return true
}

// SimulatePoint executes one grid point of a normalized Space, with no
// result cache attached — the serve daemon's unit of work: the daemon does
// its own store probing and in-flight deduplication per point and calls
// this only for points that must actually run. It is a one-point shard:
// with a trace cache the point replays the workload's shared capture in one
// batched fan-out pass, so however many daemon clients sweep a workload, it
// executes at most once per (workload, packet). Results are bit-identical
// to explore.Run's.
func SimulatePoint(ctx context.Context, s Space, pt Point, tc *suite.TraceCache) (*PointResult, error) {
	prs, err := simulateShard(ctx, s, pt.Workload, []fanPoint{{pt: pt}}, s.techniques(), s.MABs(), tc)
	if err != nil {
		return nil, err
	}
	return prs[0], nil
}
