package explore

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"waymemo/internal/cache"
	"waymemo/internal/pool"
	"waymemo/internal/power"
	"waymemo/internal/stats"
	"waymemo/internal/suite"
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
	// Cached is meaningful when Done: the point was not simulated by this
	// sweep — it came from the result cache or, when Joined is also set,
	// from another sweep's simulation this one waited on.
	Cached bool
	Joined bool
	Done   bool
}

// options collects the Run configuration; see the With* constructors.
type options struct {
	sc           Scheduler
	cacheDir     string
	noTraceShare bool
	traceDir     string
}

// Option configures Run.
type Option func(*options) error

// WithCacheDir memoizes grid points in a DirCache over dir (default: none,
// every point simulates); the directory is created if needed. An empty dir
// is an error — silently running uncached would be the costlier surprise.
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
	return func(o *options) error { o.sc.Parallelism = n; return nil }
}

// WithProgress installs a callback invoked as grid points start and finish.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) error { o.sc.Progress = fn; return nil }
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

// Run expands the space into its grid and schedules every point through
// a Scheduler built from the options. Every point carries the space's full
// technique list and costs one pass over its workload's event stream; with
// trace sharing (the default) each workload executes once and every shard
// replays the capture. With a result cache, stored points load instead of
// simulating and simulated ones are stored, so a warm cache re-runs an
// identical sweep without a single simulation (Grid.Misses == 0). Run
// returns the first error encountered, or ctx.Err() if the context ends
// first.
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
		o.sc.Cache = dc
	}
	switch {
	case o.noTraceShare && o.traceDir != "":
		return nil, fmt.Errorf("explore: trace directory given but trace sharing disabled")
	case o.traceDir != "":
		var err error
		if o.sc.Traces, err = suite.NewDirTraceCache(o.traceDir); err != nil {
			return nil, err
		}
	case !o.noTraceShare:
		o.sc.Traces = suite.NewTraceCache()
	}
	return o.sc.Run(ctx, space)
}

// Scheduler is the shard scheduler, the one code path that schedules grid
// points: Run builds one from its options, and the serve daemon builds one
// over its own store, trace cache and simulation slots. For every point it
// asks Cache for a hit, a join or a claim (see Cache), then shards the
// claimed points by workload, simulates each shard in one fan-out pass and
// publishes every claimed point's result or error back to Cache.
//
// Claimed shards never wait on a join, and a join never holds a worker:
// joins wait on their own goroutines beside the shard pool. Two sweeps
// that each claim a point the other joins therefore both finish, at any
// Parallelism.
type Scheduler struct {
	// Cache resolves and publishes grid points; nil claims every point
	// and publishes nothing.
	Cache Cache
	// Traces is the execute-once / replay-many engine; nil executes every
	// point live, one point per shard.
	Traces *suite.TraceCache
	// Parallelism bounds the shards simulating at once (<= 0: GOMAXPROCS).
	// Results are identical at every level.
	Parallelism int
	// Progress, if set, is called as grid points start and finish; calls
	// are serialized.
	Progress func(Progress)
	// Shard, if set, wraps each shard's simulation: it calls simulate
	// once, under whatever context it chooses, and returns its error — or
	// returns an error without calling it. ctx ends when the sweep fails
	// or is cancelled. Nil calls simulate(ctx).
	Shard func(ctx context.Context, simulate func(context.Context) error) error
}

// Run normalizes the space and schedules its whole grid.
func (sc Scheduler) Run(ctx context.Context, space Space) (*Grid, error) {
	s, err := space.Normalize()
	if err != nil {
		return nil, err
	}
	g := &Grid{Space: s}
	if g.Points, g.Hits, g.Misses, err = sc.run(ctx, s, s.Points()); err != nil {
		return nil, err
	}
	if sc.Traces != nil {
		g.Traces = sc.Traces.Stats()
	}
	return g, nil
}

// fanPoint is one grid point the scheduler resolves: its slot in the
// sweep's point list and its resolver key (empty without a Cache).
type fanPoint struct {
	i   int
	pt  Point
	key string
}

// fanShard is one scheduling unit: a slice of one workload's claimed grid
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

// run schedules pts, points of the normalized space s, and returns their
// results in pts order with the hit (stored or joined) and simulated
// counts. Resolution is serial and never blocks, so a fully warm sweep
// finishes without a capture or a replay. Every claimed point is published
// exactly once, with its result or with the error that stopped it —
// including points whose shard never started because the sweep failed
// first — so no joiner elsewhere waits forever.
func (sc Scheduler) run(ctx context.Context, s Space, pts []Point) ([]PointResult, int, int, error) {
	techs, mabs := s.Techniques(), s.MABs()
	results := make([]PointResult, len(pts))
	var progressMu sync.Mutex
	report := func(fp fanPoint, done, cached, joined bool) {
		if sc.Progress != nil {
			progressMu.Lock()
			defer progressMu.Unlock()
			sc.Progress(Progress{Index: fp.pt.Index, Total: len(pts), Geometry: fp.pt.Geometry,
				Workload: fp.pt.Workload.Name, Cached: cached, Joined: joined, Done: done})
		}
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) { errOnce.Do(func() { firstErr = err; cancel() }) }

	var claims []fanPoint
	var joins sync.WaitGroup
	var hits, misses atomic.Int64
	for i, pt := range pts {
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		fp := fanPoint{i: i, pt: pt}
		if sc.Cache == nil {
			claims = append(claims, fp)
			continue
		}
		fp.key = KeyWorkload(s.Domain, pt.Geometry, pt.Workload, s.PacketBytes, mabs)
		hit, join := sc.Cache.Resolve(fp.key, func(pr *PointResult) bool { return pointValid(pr, pt, techs) })
		switch {
		case hit != nil:
			results[i] = *hit
			results[i].Cached = true
			hits.Add(1)
			report(fp, false, false, false)
			report(fp, true, true, false)
		case join != nil:
			// A join waits on its own goroutine, never in a shard worker.
			joins.Add(1)
			go func() {
				defer joins.Done()
				report(fp, false, false, false)
				pr, err := join(runCtx)
				if err != nil {
					fail(err)
					return
				}
				results[i] = *pr
				results[i].Cached = true
				hits.Add(1)
				report(fp, true, true, true)
			}()
		default:
			claims = append(claims, fp)
		}
	}

	shards := sc.shards(claims)
	published := make([]bool, len(shards))
	err := pool.Run(runCtx, len(shards), sc.Parallelism, func(shCtx context.Context, idx int) error {
		sh := shards[idx]
		for _, fp := range sh.pts {
			report(fp, false, false, false)
		}
		var prs []*PointResult
		simulate := func(simCtx context.Context) (err error) {
			prs, err = simulateShard(simCtx, s, sh.w, sh.pts, techs, sc.Traces)
			return err
		}
		var err error
		if sc.Shard != nil {
			err = sc.Shard(shCtx, simulate)
		} else {
			err = simulate(shCtx)
		}
		if err != nil && shCtx.Err() != nil {
			return err // the sweep is failing: its error is published below
		}
		published[idx] = true
		var first error
		for pi, fp := range sh.pts {
			var pr *PointResult
			if err == nil {
				pr = prs[pi]
			}
			if perr := sc.publish(fp.key, pr, err); perr != nil {
				first = cmp.Or(first, perr)
				continue
			}
			results[fp.i] = *pr
			misses.Add(1)
			report(fp, true, false, false)
		}
		if first != nil {
			fail(first)
		}
		return first
	})
	if err != nil {
		fail(err)
	}
	for idx, sh := range shards {
		if !published[idx] { // skipped, or cut off by the failing sweep
			for _, fp := range sh.pts {
				sc.publish(fp.key, nil, firstErr)
			}
		}
	}
	joins.Wait()
	if firstErr != nil {
		return nil, 0, 0, firstErr
	}
	return results, int(hits.Load()), int(misses.Load()), nil
}

// publish hands a claimed point's outcome to the Cache and returns the
// error the sweep fails the point with (err itself without a Cache).
func (sc Scheduler) publish(key string, pr *PointResult, err error) error {
	if sc.Cache == nil {
		return err
	}
	return sc.Cache.Publish(key, pr, err)
}

// shards splits the claimed points by workload — enough shards to keep
// every worker busy, few enough that each capture is streamed a handful of
// times, and never more than maxShardPoints technique sets live per pass;
// live sweeps get one point per shard. The boundaries depend only on the
// claims and the parallelism, so results stay deterministic.
func (sc Scheduler) shards(claims []fanPoint) []fanShard {
	var groups [][]fanPoint
	slot := map[string]int{}
	for _, fp := range claims {
		g, ok := slot[fp.pt.Workload.Name]
		if !ok {
			g = len(groups)
			slot[fp.pt.Workload.Name] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], fp)
	}
	par := sc.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var shards []fanShard
	for _, group := range groups {
		k := min((par+len(groups)-1)/len(groups), (len(group)+minShardPoints-1)/minShardPoints)
		k = max(k, (len(group)+maxShardPoints-1)/maxShardPoints)
		if sc.Traces == nil {
			k = len(group)
		}
		for _, r := range pool.Split(len(group), k) {
			shards = append(shards, fanShard{w: group[0].pt.Workload, pts: group[r[0]:r[1]]})
		}
	}
	return shards
}

// simulateShard simulates pts, grid points of workload w, in one pass over
// w's event stream. Each point attaches the space's techniques through
// suite.Attach, as suite.Run attaches a benchmark's: the baseline and
// every MAB size are one way-memoized controller over one cache, since way
// memoization never changes hits, misses or evictions (see core.Lane).
// The controllers are fed through suite.Drive: a single batched fan-out
// replay of the workload's capture, or, when tc is nil, one live execution
// delivered in blocks. Either way each point is priced by assemblePoint,
// so live and replayed grids are byte-identical.
func simulateShard(ctx context.Context, s Space, w workloads.Workload, pts []fanPoint,
	techs []suite.Technique, tc *suite.TraceCache) ([]*PointResult, error) {
	// Build the controllers only now, so the memory a sweep holds live is
	// bounded by the active shards, not the grid.
	outs := make([][]suite.TechResult, len(pts))
	pairs := make([]trace.SinkPair, 0, len(pts))
	for pi, fp := range pts {
		p, res, err := suite.Attach(fp.pt.Geometry, techs)
		if err != nil {
			return nil, err
		}
		pairs, outs[pi] = append(pairs, p...), res
	}
	cycles, instrs, err := suite.Drive(ctx, w, s.PacketBytes, pairs, tc, len(pts))
	if err != nil {
		return nil, err
	}
	prs := make([]*PointResult, len(pts))
	for pi, fp := range pts {
		prs[pi] = assemblePoint(fp.pt, techs, outs[pi], cycles, instrs)
	}
	return prs, nil
}

// assemblePoint prices one grid point's freshly simulated results, one
// per technique, into the PointResult the analysis layer and the result
// cache consume. A technique's MAB size is the lane it shares.
func assemblePoint(pt Point, techs []suite.Technique, res []suite.TechResult, cycles, instrs uint64) *PointResult {
	pr := &PointResult{
		Geometry: pt.Geometry,
		Workload: pt.Workload.Name,
		Cycles:   cycles,
		Instrs:   instrs,
		Techs:    make([]TechOutcome, len(techs)),
	}
	for i, t := range techs {
		to := &pr.Techs[i]
		to.ID = string(t.ID)
		to.TagEntries, to.SetEntries = t.Shares.MAB.TagEntries, t.Shares.MAB.SetEntries
		to.Stats, to.Power = *res[i].Stats, power.Compute(res[i].Stats, cycles, res[i].Model)
	}
	return pr
}

// pointValid checks a stored result against the grid point it must
// answer for. The content hash already pins the inputs, but a tampered or
// hand-edited file can hold shape-valid JSON for the wrong point; anything
// that does not match the expected technique list degrades to a miss and
// is re-simulated rather than poisoning the analysis. The scheduler gates
// every resolver's hits on it.
func pointValid(pr *PointResult, pt Point, techs []suite.Technique) bool {
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

// SimulatePoint executes one grid point of a normalized Space with no
// result cache attached: a one-point sweep through the shard scheduler.
// With a trace cache the point replays the workload's shared capture in
// one batched fan-out pass. Results are bit-identical to explore.Run's.
func SimulatePoint(ctx context.Context, s Space, pt Point, tc *suite.TraceCache) (*PointResult, error) {
	prs, _, _, err := Scheduler{Traces: tc, Parallelism: 1}.run(ctx, s, []Point{pt})
	if err != nil {
		return nil, err
	}
	return &prs[0], nil
}
