// Package explore is the design-space exploration engine: it expands an
// axis specification (cache geometry, MAB sizes, workloads) into a grid of
// points, schedules the grid in deterministic result order, memoizes
// completed points in an on-disk result cache, and extracts the analyses
// the paper's Section 4 performs by hand — per-configuration averages,
// per-axis marginals, the power/hit-rate Pareto frontier and the
// power-optimal MAB size (the paper picks 2 tags × 8 set indices for the
// D-cache and 2×16 for the I-cache).
//
// A Space is the what: one axis per swept parameter, every combination is
// simulated. A grid point is one (geometry, workload) pair with the
// conventional baseline and every MAB size of the space attached to one
// cache model. The Scheduler is the how, and the only code that schedules
// grid points — Run and the serve daemon both use it: each point is a
// hit, a join or a claim (see Cache), and the claimed points simulate in
// per-workload shards on a worker pool, each shard in one pass:
//
//	grid, err := explore.Run(ctx, explore.PaperGrid(suite.Data),
//		explore.WithCacheDir(".explore-cache"),
//		explore.WithParallelism(4))
//	best, _ := explore.Optimum(grid.Candidates())
//
// The points of a shard that share sets and line size and differ only in
// ways run as one controller, a ways group (suite.AttachWays): an LRU
// cache of fewer ways holds the most recent of the lines a wider one
// holds, so one recency order per set answers every associativity. A
// fetch sweep whose packet is wider than the line attaches each geometry
// alone, in the same pass.
//
// The result cache applies the paper's own trick to the simulator: a grid
// point's inputs are hashed (geometry + technique set + workload + fetch
// packet, see Key) and a completed point is written to <hash>.json, so a
// repeated or resumed sweep skips every already-simulated point. Corrupt or
// truncated cache files are treated as misses and rewritten.
//
// Underneath the result cache sits the execute-once / replay-many trace
// engine (suite.TraceCache, on by default): a workload's event stream
// depends only on (workload, fetch packet), never on cache geometry or
// technique, so each workload is executed once per sweep, feeding the
// shard that started it as it runs, and every other shard replays the
// capture to all of its points — G×W grid points cost W executions plus
// a few replays per workload, bit-identical to executing each point live. WithTraceDir spills the captures as WMTRACE4 files for
// reuse across processes.
package explore

import (
	"fmt"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/sim"
	"waymemo/internal/suite"
	"waymemo/internal/workloads"
)

// MaxPoints caps a space's grid, Sets × Ways × LineBytes × Workloads. A
// sweep request's axes are as long as its body, and the daemon holds a
// Point, a PointResult, an SSE event pair and a journal record per grid
// point, so the cap keeps a request's cost linear in its size: 65536
// points is a thousand times the largest sweep the repository's benchmark
// runs (63 points).
const MaxPoints = 1 << 16

// Space is an axis specification. The grid is the cross product of the
// geometry axes (Sets × Ways × LineBytes) and the workload axis; every grid
// point evaluates the conventional baseline plus one way-memoized technique
// per MAB configuration (TagEntries × SetEntries) in a single simulator
// pass. Nil axes take the paper's defaults.
type Space struct {
	// Domain selects which cache is swept: suite.Data or suite.Fetch.
	Domain suite.Domain

	// Geometry axes (defaults: the paper's 512 sets × 2 ways × 32-byte
	// lines, i.e. cache.FRV32K).
	Sets      []int
	Ways      []int
	LineBytes []int

	// MAB axes (defaults: the paper's grid, 1-2 tags × 4-32 set indices).
	TagEntries []int
	SetEntries []int

	// Workloads is the benchmark axis (default, when WorkloadSpecs is also
	// empty: the paper's seven).
	Workloads []workloads.Workload

	// WorkloadSpecs extends the workload axis by name: each entry is a
	// benchmark name or a synthetic spec ("synth:pchase,fp=64KiB,seed=7";
	// see internal/synth). A spec with a ranged knob
	// ("synth:pchase,fp=4KiB..64KiB") expands into one grid workload per
	// value, which is how a locality sweep becomes an explore axis.
	// Expanded workloads follow Workloads in spec order.
	WorkloadSpecs []string

	// PacketBytes overrides the fetch-packet size (0 = the 8-byte VLIW
	// packet).
	PacketBytes uint32
}

// PaperGrid returns the sweep of the paper's Section 4 for one cache
// domain: the fixed 32KB 2-way geometry, the full 1-2 × 4-32 MAB grid and
// all seven benchmarks.
func PaperGrid(domain suite.Domain) Space {
	return Space{Domain: domain}
}

// Normalize fills defaulted axes, expands WorkloadSpecs into Workloads and
// validates every axis value. The returned Space is fully explicit, as
// Points, Techniques and MABs assume.
func (s Space) Normalize() (Space, error) {
	if s.Domain != suite.Data && s.Domain != suite.Fetch {
		return s, fmt.Errorf("explore: invalid domain %d", s.Domain)
	}
	if len(s.Sets) == 0 {
		s.Sets = []int{cache.FRV32K.Sets}
	}
	if len(s.Ways) == 0 {
		s.Ways = []int{cache.FRV32K.Ways}
	}
	if len(s.LineBytes) == 0 {
		s.LineBytes = []int{cache.FRV32K.LineBytes}
	}
	if len(s.TagEntries) == 0 {
		s.TagEntries = []int{1, 2}
	}
	if len(s.SetEntries) == 0 {
		s.SetEntries = []int{4, 8, 16, 32}
	}
	if len(s.WorkloadSpecs) != 0 {
		expanded := append([]workloads.Workload{}, s.Workloads...)
		for _, spec := range s.WorkloadSpecs {
			ws, err := workloads.ExpandByName(spec)
			if err != nil {
				return s, fmt.Errorf("explore: workload axis: %w", err)
			}
			expanded = append(expanded, ws...)
		}
		s.Workloads, s.WorkloadSpecs = expanded, nil
	}
	if len(s.Workloads) == 0 {
		s.Workloads = workloads.All()
	}
	if err := sim.CheckPacketBytes(s.PacketBytes); err != nil {
		return s, fmt.Errorf("explore: %w", err)
	}
	// Duplicate axis values would double-count grid points (and duplicate
	// technique IDs abort deep inside suite.Run); reject them up front.
	for _, ax := range []struct {
		name string
		vals []int
	}{
		{"sets", s.Sets}, {"ways", s.Ways}, {"line", s.LineBytes},
		{"mab-tags", s.TagEntries}, {"mab-sets", s.SetEntries},
	} {
		seenVal := map[int]bool{}
		for _, v := range ax.vals {
			if seenVal[v] {
				return s, fmt.Errorf("explore: duplicate %s axis value %d", ax.name, v)
			}
			seenVal[v] = true
		}
	}
	// Check every axis value on its own, then bound the grid, before
	// expanding any cross product: the axes of a request are as long as
	// its body, and their product is not.
	for _, ax := range []struct {
		vals  []int
		check func(int) error
	}{
		{s.Sets, cache.ValidateSets}, {s.Ways, cache.ValidateWays}, {s.LineBytes, cache.ValidateLineBytes},
	} {
		for _, v := range ax.vals {
			if err := ax.check(v); err != nil {
				return s, err
			}
		}
	}
	n := 1
	for _, l := range []int{len(s.Sets), len(s.Ways), len(s.LineBytes), len(s.Workloads)} {
		if n > MaxPoints/l {
			return s, fmt.Errorf("explore: %d sets x %d ways x %d line sizes x %d workloads is over %d grid points",
				len(s.Sets), len(s.Ways), len(s.LineBytes), len(s.Workloads), MaxPoints)
		}
		n *= l
	}
	geos := s.Geometries()
	for _, geo := range geos {
		if err := geo.Validate(); err != nil {
			return s, err
		}
	}
	// Validate the MAB sizes before expanding their cross product: the
	// axis values are distinct, and a size over core.MaxPairs ends the
	// scan, so at most a few tens of thousands of sizes are ever expanded.
	for _, nt := range s.TagEntries {
		for _, ns := range s.SetEntries {
			if err := (core.Config{TagEntries: nt, SetEntries: ns}).Validate(); err != nil {
				return s, fmt.Errorf("explore: %w", err)
			}
		}
	}
	mabs := s.MABs()
	price := core.PriceState(mabs)
	for _, geo := range geos {
		if b := price.Bytes(geo); b > core.MaxStateBytes {
			return s, fmt.Errorf("explore: %d sets x %d ways with %d MAB sizes needs %d MiB of controller state per point, over %d MiB",
				geo.Sets, geo.Ways, len(mabs), b>>20, core.MaxStateBytes>>20)
		}
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if w.Name == "" {
			return s, fmt.Errorf("explore: workload with empty name")
		}
		if seen[w.Name] {
			return s, fmt.Errorf("explore: duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
	}
	return s, nil
}

// Geometries expands the geometry axes in deterministic order (Sets major,
// then Ways, then LineBytes).
func (s Space) Geometries() []cache.Config {
	out := make([]cache.Config, 0, len(s.Sets)*len(s.Ways)*len(s.LineBytes))
	for _, sets := range s.Sets {
		for _, ways := range s.Ways {
			for _, line := range s.LineBytes {
				out = append(out, cache.Config{Sets: sets, Ways: ways, LineBytes: line})
			}
		}
	}
	return out
}

// MABs expands the MAB axes in deterministic order (TagEntries major).
func (s Space) MABs() []core.Config {
	out := make([]core.Config, 0, len(s.TagEntries)*len(s.SetEntries))
	for _, nt := range s.TagEntries {
		for _, ns := range s.SetEntries {
			out = append(out, core.Config{TagEntries: nt, SetEntries: ns})
		}
	}
	return out
}

// NumPoints returns the number of grid points (simulator passes) the space
// expands to: one per geometry per workload. WorkloadSpecs entries count
// only after normalization (Run reports the true total via Progress).
func (s Space) NumPoints() int {
	return len(s.Sets) * len(s.Ways) * len(s.LineBytes) * len(s.Workloads)
}

// Point is one grid point: one workload simulated once under one geometry,
// with every technique of the space attached.
type Point struct {
	// Index is the point's position in the deterministic grid order
	// (geometry major, workload minor) and in Grid.Points.
	Index    int
	Geometry cache.Config
	Workload workloads.Workload
}

// Points expands the grid in deterministic order (geometry major, workload
// minor). Call it on a normalized Space — defaulted axes expand to nothing.
func (s Space) Points() []Point {
	out := make([]Point, 0, s.NumPoints())
	for _, geo := range s.Geometries() {
		for _, w := range s.Workloads {
			out = append(out, Point{Index: len(out), Geometry: geo, Workload: w})
		}
	}
	return out
}

// PointKeys returns the result-cache key (KeyWorkload) of every grid point
// in Points order. Like Points it assumes a normalized Space.
func (s Space) PointKeys() []string {
	mabs := s.MABs()
	var keys []string
	for _, pt := range s.Points() {
		keys = append(keys, KeyWorkload(s.Domain, pt.Geometry, pt.Workload, s.PacketBytes, mabs))
	}
	return keys
}

// Techniques builds the per-point technique list: the domain's conventional
// baseline first, then one way-memoized technique per MAB configuration.
// Like Points it assumes a normalized Space.
func (s Space) Techniques() []suite.Technique {
	techs := make([]suite.Technique, 0, 1+len(s.TagEntries)*len(s.SetEntries))
	switch s.Domain {
	case suite.Data:
		techs = append(techs, suite.MustLookup(suite.Data, suite.DOrig))
	case suite.Fetch:
		techs = append(techs, suite.MustLookup(suite.Fetch, suite.IOrig))
	}
	for _, m := range s.MABs() {
		id := suite.ID(fmt.Sprintf("mab-%dx%d", m.TagEntries, m.SetEntries))
		switch s.Domain {
		case suite.Data:
			techs = append(techs, suite.MABDataTechnique(id, "explore grid point", m))
		case suite.Fetch:
			techs = append(techs, suite.MABFetchTechnique(id, "explore grid point", m))
		}
	}
	return techs
}
