package explore

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/suite"
	"waymemo/internal/workloads"
)

// tinyProgram is a small but cache-interesting loop: two passes over a
// 1KB array with a strided store, enough traffic for every counter to
// move while simulating in well under a millisecond.
const tinyProgram = `
main:	li   s1, 2             ; passes
pass:	la   t0, data
	li   t1, 256           ; elements
	li   s0, 0
loop:	lw   t2, 0(t0)
	add  s0, s0, t2
	sw   s0, 2048(t0)
	addi t0, t0, 4
	addi t1, t1, -1
	bnez t1, loop
	addi s1, s1, -1
	bnez s1, pass
	la   t4, result
	sw   s0, 0(t4)
	halt
	.org 0x100000
data:	.space 1024, 1
result:	.space 4
	.space 2048
`

func tinyWorkload(name string) workloads.Workload {
	return workloads.Workload{Name: name, Sources: []string{tinyProgram},
		MaxInstrs: 1_000_000}
}

// tinySpace sweeps two geometries and a 1x4 / 2x4 MAB pair over one tiny
// workload: 2 grid points, 3 techniques per point.
func tinySpace() Space {
	return Space{
		Domain:     suite.Data,
		Sets:       []int{64, 128},
		TagEntries: []int{1, 2},
		SetEntries: []int{4},
		Workloads:  []workloads.Workload{tinyWorkload("tiny")},
	}
}

func TestSpaceNormalizeDefaults(t *testing.T) {
	s, err := Space{Domain: suite.Data}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumPoints(); got != 7 {
		t.Errorf("paper grid points = %d, want 7", got)
	}
	if len(s.MABs()) != 8 {
		t.Errorf("paper grid MABs = %d, want 8", len(s.MABs()))
	}
	if len(s.techniques()) != 9 {
		t.Errorf("techniques = %d, want 9 (baseline + 8 MABs)", len(s.techniques()))
	}
}

func TestSpaceValidation(t *testing.T) {
	cases := []Space{
		{Domain: 7},
		{Domain: suite.Data, Sets: []int{100}},                        // not a power of two
		{Domain: suite.Data, TagEntries: []int{0}},                    // invalid MAB
		{Domain: suite.Data, Workloads: []workloads.Workload{{}, {}}}, // empty names
		{Domain: suite.Data, Workloads: []workloads.Workload{
			tinyWorkload("a"), tinyWorkload("a")}}, // duplicate names
		{Domain: suite.Data, PacketBytes: 6},          // not a power of two
		{Domain: suite.Data, PacketBytes: 2},          // below the 4-byte minimum
		{Domain: suite.Data, SetEntries: []int{8, 8}}, // duplicate MAB axis value
		{Domain: suite.Data, Sets: []int{512, 512}},   // duplicate geometry axis value
	}
	for i, s := range cases {
		if _, err := Run(context.Background(), s); err == nil {
			t.Errorf("case %d: invalid space accepted", i)
		}
	}
	// An empty cache directory must fail loudly, not run uncached.
	if _, err := Run(context.Background(), tinySpace(), WithCacheDir("")); err == nil {
		t.Error("empty cache dir accepted")
	}
}

// TestSpaceNormalizeGeometryLimits: Normalize is the HTTP boundary's
// validation, so a geometry the cache model cannot hold (over
// cache.MaxLines lines, or no tag bits left on 32-bit addresses) must be
// rejected there, before any grid point is scheduled or journaled.
func TestSpaceNormalizeGeometryLimits(t *testing.T) {
	cases := []struct {
		name             string
		sets, ways, line []int
		tags, mabSets    []int // nil: the default MAB axes
		ok               bool
	}{
		{"paper", []int{512}, []int{2}, []int{32}, nil, nil, true},
		{"at the line cap", []int{1024}, []int{1024}, []int{32}, nil, nil, true},
		{"1-bit tag", []int{1 << 16}, []int{1}, []int{1 << 15}, nil, nil, true},
		{"2^30 sets", []int{1 << 30}, []int{1}, []int{4}, nil, nil, false},
		{"one way over the cap", []int{1024}, []int{1025}, []int{32}, nil, nil, false},
		{"fully associative over the cap", []int{1}, []int{cache.MaxLines + 1}, []int{32}, nil, nil, false},
		{"no tag bits", []int{1 << 27}, []int{1}, []int{32}, nil, nil, false},
		{"no tag bits from the line", []int{2}, []int{1}, []int{1 << 31}, nil, nil, false},
		{"one bad value in the axis", []int{512, 1 << 30}, []int{2}, []int{32}, nil, nil, false},
		{"MAB at the pair cap", []int{512}, []int{2}, []int{32}, []int{4}, []int{core.MaxPairs / 4}, true},
		{"MAB one set over the pair cap", []int{512}, []int{2}, []int{32}, []int{4}, []int{core.MaxPairs/4 + 1}, false},
		{"2^30 MAB sets", []int{512}, []int{2}, []int{32}, []int{1}, []int{1 << 30}, false},
		{"MAB pairs overflowing int", []int{512}, []int{2}, []int{32}, []int{1 << 40}, []int{1 << 40}, false},
		{"one oversized MAB in the axis", []int{512}, []int{2}, []int{32}, []int{2}, []int{8, 1 << 20}, false},
		{"empty MAB tag table", []int{512}, []int{2}, []int{32}, []int{0}, []int{8}, false},
	}
	for _, c := range cases {
		sp := Space{Domain: suite.Data, Sets: c.sets, Ways: c.ways, LineBytes: c.line,
			TagEntries: c.tags, SetEntries: c.mabSets,
			Workloads: []workloads.Workload{tinyWorkload("tiny")}}
		if _, err := sp.Normalize(); (err == nil) != c.ok {
			t.Errorf("%s: Normalize error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// upTo returns 1..n.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// TestSpaceNormalizeStateBudget: every MAB size is within core.MaxPairs on
// its own, but 64 x 64 of them over a 2^20-set cache would allocate a 4 MiB
// reverse map each, 16 GiB per grid point. Normalize must refuse the
// space by its per-point controller state, and accept the largest cache
// with the paper's MAB grid.
func TestSpaceNormalizeStateBudget(t *testing.T) {
	huge := Space{Domain: suite.Data, Sets: []int{1 << 20}, Ways: []int{1}, LineBytes: []int{1},
		TagEntries: upTo(64), SetEntries: upTo(64), Workloads: []workloads.Workload{tinyWorkload("tiny")}}
	if b := core.StateBytes(huge.Geometries()[0], huge.MABs()); b < 16<<30 {
		t.Fatalf("StateBytes = %d, want at least 16 GiB", b)
	}
	if _, err := huge.Normalize(); err == nil {
		t.Fatal("Normalize accepted 16 GiB of controller state per point")
	}
	for _, geo := range [][3]int{{1 << 20, 1, 4}, {1024, 1024, 32}} {
		sp := Space{Domain: suite.Data, Sets: []int{geo[0]}, Ways: []int{geo[1]}, LineBytes: []int{geo[2]},
			Workloads: []workloads.Workload{tinyWorkload("tiny")}}
		n, err := sp.Normalize()
		if err != nil {
			t.Fatalf("%v with the paper's MAB grid: %v", geo, err)
		}
		if b := core.StateBytes(n.Geometries()[0], n.MABs()); b > core.MaxStateBytes {
			t.Fatalf("%v: accepted %d bytes, over the budget", geo, b)
		}
	}
}

// stripCached clears the run-local Cached flag so result sets from cold and
// warm runs compare equal.
func stripCached(g *Grid) []PointResult {
	out := make([]PointResult, len(g.Points))
	copy(out, g.Points)
	for i := range out {
		out[i].Cached = false
	}
	return out
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	var ref *Grid
	for _, par := range []int{1, 4} {
		g, err := Run(context.Background(), tinySpace(), WithParallelism(par))
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(g.Points) != 2 {
			t.Fatalf("par=%d: %d points, want 2", par, len(g.Points))
		}
		for i, p := range g.Points {
			if p.Cycles == 0 || len(p.Techs) != 3 {
				t.Fatalf("par=%d: point %d empty: %+v", par, i, p)
			}
		}
		if g.Points[0].Geometry.Sets != 64 || g.Points[1].Geometry.Sets != 128 {
			t.Fatalf("par=%d: grid order broken: %v, %v", par,
				g.Points[0].Geometry, g.Points[1].Geometry)
		}
		if ref == nil {
			ref = g
			continue
		}
		if !reflect.DeepEqual(stripCached(ref), stripCached(g)) {
			t.Errorf("par=%d: results differ from sequential run", par)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, tinySpace()); err == nil {
		t.Fatal("cancelled context did not fail the sweep")
	}
}

func TestProgressCallbacks(t *testing.T) {
	var events []Progress
	g, err := Run(context.Background(), tinySpace(),
		WithParallelism(1),
		WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*len(g.Points) {
		t.Fatalf("%d progress events, want %d", len(events), 2*len(g.Points))
	}
	done := 0
	for _, e := range events {
		if e.Total != len(g.Points) || e.Workload != "tiny" {
			t.Errorf("bad event: %+v", e)
		}
		if e.Done {
			done++
			if e.Cached {
				t.Errorf("cacheless run reported a cached point: %+v", e)
			}
		}
	}
	if done != len(g.Points) {
		t.Errorf("%d done events, want %d", done, len(g.Points))
	}
}

func TestCandidatesAndAnalysis(t *testing.T) {
	g, err := Run(context.Background(), tinySpace())
	if err != nil {
		t.Fatal(err)
	}
	cands := g.Candidates()
	if len(cands) != 6 { // 2 geometries × (baseline + 2 MABs)
		t.Fatalf("%d candidates, want 6", len(cands))
	}
	for i, c := range cands {
		isBase := i%3 == 0
		if isBase != (c.TagEntries == 0) {
			t.Errorf("candidate %d: baseline ordering broken: %+v", i, c)
		}
		if isBase && (c.Saving != 0 || c.AvgMW != c.BaselineMW) {
			t.Errorf("baseline candidate has nonzero saving: %+v", c)
		}
		if !isBase && !(c.MABHitRate > 0) {
			t.Errorf("MAB candidate %s has no MAB hits", c.ID)
		}
		if c.AvgMW <= 0 || c.HitRate <= 0 {
			t.Errorf("candidate %d degenerate: %+v", i, c)
		}
	}

	best, ok := Optimum(cands)
	if !ok {
		t.Fatal("no optimum")
	}
	for _, c := range cands {
		if c.AvgMW < best.AvgMW {
			t.Errorf("optimum %v beaten by %v", best, c)
		}
	}

	front := Pareto(cands)
	if len(front) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for i := 1; i < len(front); i++ {
		if front[i].AvgMW < front[i-1].AvgMW {
			t.Errorf("frontier not sorted by power")
		}
	}
	foundBest := false
	for _, c := range front {
		if c == best {
			foundBest = true
		}
	}
	if !foundBest {
		t.Errorf("optimum not on the Pareto frontier")
	}

	marg := g.Marginals()
	// Swept axes: sets (2 values) and mab-tags (2 values) → 4 marginals.
	if len(marg) != 4 {
		t.Fatalf("%d marginals, want 4: %+v", len(marg), marg)
	}
	for _, m := range marg {
		if m.N != 2 || m.AvgMW <= 0 {
			t.Errorf("bad marginal: %+v", m)
		}
	}
}

func TestReportRendering(t *testing.T) {
	g, err := Run(context.Background(), tinySpace())
	if err != nil {
		t.Fatal(err)
	}
	var text, csv, md strings.Builder
	g.WriteReport(&text, false)
	g.WriteReport(&csv, true)
	g.WriteMarkdown(&md)
	for _, s := range []string{text.String(), csv.String(), md.String()} {
		if !strings.Contains(s, "mab-2x4") || !strings.Contains(s, "original") {
			t.Errorf("report missing candidates:\n%s", s)
		}
		if !strings.Contains(s, "power-optimal configuration") {
			t.Errorf("report missing optimum line:\n%s", s)
		}
	}
	// Multi-geometry grids must label candidates with their geometry.
	if !strings.Contains(text.String(), "64x2x32 mab-1x4") {
		t.Errorf("summary lacks geometry labels:\n%s", text.String())
	}
	if !strings.Contains(md.String(), "| --- |") {
		t.Errorf("markdown report lacks pipe tables:\n%s", md.String())
	}
}

// TestPaperGridRegression is the golden design-space result: the paper's
// MAB grid over the full seven-benchmark suite, memoized, run twice.
//
// The paper's Section 4 picks 2 tags × 8 set indices as the power-optimal
// D-cache MAB. In this reproduction the measured optimum is 2x16 — our
// 32-bit workloads touch 9-16 distinct set indices per base region where
// the paper's benchmarks saturated around 8, so the 16-entry set table
// buys more array savings than its extra power costs (see ARCHITECTURE.md,
// "Known deviations"). The test pins both facts: 2x16 measures optimal,
// and the paper's 2x8 stays within 5% of it with a paper-band saving.
func TestPaperGridRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper grid (7 benchmarks x 8 MAB sizes); skipped in -short")
	}
	dir := t.TempDir()
	run := func() *Grid {
		g, err := Run(context.Background(), PaperGrid(suite.Data), WithCacheDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	cold := run()
	if cold.Misses != 7 || cold.Hits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/7", cold.Hits, cold.Misses)
	}

	cands := cold.Candidates()
	byID := map[string]Candidate{}
	for _, c := range cands {
		byID[c.ID] = c
	}
	best, _ := Optimum(cands)
	if best.ID != "mab-2x16" {
		t.Errorf("measured optimum = %s, want mab-2x16 (golden)", best.ID)
	}
	paper := byID["mab-2x8"]
	if paper.ID == "" {
		t.Fatal("paper pick mab-2x8 missing from candidates")
	}
	if gap := paper.AvgMW/best.AvgMW - 1; gap < 0 || gap > 0.05 {
		t.Errorf("2x8 is %.1f%% off the optimum, want within [0, 5%%]", gap*100)
	}
	if paper.Saving < 0.15 || paper.Saving > 0.55 {
		t.Errorf("2x8 average saving %.2f outside [0.15, 0.55] (paper: ~0.35)", paper.Saving)
	}
	// Every MAB size must beat the conventional baseline on average.
	for _, c := range cands {
		if c.TagEntries > 0 && c.Saving <= 0 {
			t.Errorf("%s does not pay for itself: saving %.3f", c.ID, c.Saving)
		}
	}

	// The warm run must simulate nothing and reproduce the cold results.
	warm := run()
	if warm.Hits != 7 || warm.Misses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 7/0", warm.Hits, warm.Misses)
	}
	for _, p := range warm.Points {
		if !p.Cached {
			t.Errorf("warm point %s not served from cache", p.Workload)
		}
	}
	if !gridsApproxEqual(stripCached(cold), stripCached(warm)) {
		t.Error("warm results differ from cold results")
	}
}

// gridsApproxEqual compares point results with a float tolerance: power
// breakdowns round-trip through JSON, which preserves float64 exactly, so
// this is belt and braces around reflect.DeepEqual.
func gridsApproxEqual(a, b []PointResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.Workload != pb.Workload || pa.Cycles != pb.Cycles ||
			pa.Instrs != pb.Instrs || pa.Geometry != pb.Geometry ||
			len(pa.Techs) != len(pb.Techs) {
			return false
		}
		for j := range pa.Techs {
			ta, tb := pa.Techs[j], pb.Techs[j]
			if ta.ID != tb.ID || ta.Stats != tb.Stats {
				return false
			}
			if math.Abs(ta.Power.TotalMW()-tb.Power.TotalMW()) > 1e-9 {
				return false
			}
		}
	}
	return true
}

func TestOptimumLineMentionsPaperPick(t *testing.T) {
	g, err := Run(context.Background(), Space{
		Domain:     suite.Data,
		TagEntries: []int{2},
		SetEntries: []int{8},
		Workloads:  []workloads.Workload{tinyWorkload("tiny")},
	})
	if err != nil {
		t.Fatal(err)
	}
	line := g.OptimumLine()
	if !strings.Contains(line, "power-optimal configuration") {
		t.Errorf("optimum line malformed: %s", line)
	}
	// With only 2x8 and the baseline competing, either 2x8 wins (matching
	// the paper) or the baseline does; both must render a paper verdict.
	if !strings.Contains(line, "paper") {
		t.Errorf("optimum line lacks the paper comparison: %s", line)
	}
}

func TestPaperPick(t *testing.T) {
	if nt, ns := PaperPick(suite.Data); nt != 2 || ns != 8 {
		t.Errorf("data pick = %dx%d, want 2x8", nt, ns)
	}
	if nt, ns := PaperPick(suite.Fetch); nt != 2 || ns != 16 {
		t.Errorf("fetch pick = %dx%d, want 2x16", nt, ns)
	}
}

// TestTraceSharingEquivalence pins the execute-once / replay-many contract
// at the sweep level: a shared-trace grid is deeply equal to one that
// executes every point live, while performing only one execution per
// workload.
func TestTraceSharingEquivalence(t *testing.T) {
	space := tinySpace()
	space.Workloads = []workloads.Workload{tinyWorkload("tiny-a"), tinyWorkload("tiny-b")}

	live, err := Run(context.Background(), space, WithTraceSharing(false))
	if err != nil {
		t.Fatal(err)
	}
	if live.Traces != (suite.TraceCacheStats{}) {
		t.Fatalf("unshared sweep reported trace work: %+v", live.Traces)
	}
	shared, err := Run(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripCached(live), stripCached(shared)) {
		t.Error("shared-trace sweep diverges from live execution")
	}
	wantPoints := len(shared.Points)
	if shared.Traces.Captures != len(space.Workloads) || shared.Traces.Replays != wantPoints {
		t.Errorf("trace stats = %+v, want %d captures / %d replays",
			shared.Traces, len(space.Workloads), wantPoints)
	}
}

// TestTraceDirSpill checks WithTraceDir: a second sweep in a fresh trace
// cache reloads every capture from disk and still matches.
func TestTraceDirSpill(t *testing.T) {
	dir := t.TempDir()
	space := tinySpace()

	first, err := Run(context.Background(), space, WithTraceDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if first.Traces.Captures != 1 || first.Traces.DiskLoads != 0 {
		t.Fatalf("cold spill stats = %+v", first.Traces)
	}
	second, err := Run(context.Background(), space, WithTraceDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if second.Traces.Captures != 0 || second.Traces.DiskLoads != 1 {
		t.Fatalf("warm spill stats = %+v (want pure disk load)", second.Traces)
	}
	if !reflect.DeepEqual(stripCached(first), stripCached(second)) {
		t.Error("disk-loaded sweep diverges from capturing sweep")
	}
	if _, err := Run(context.Background(), space,
		WithTraceDir(dir), WithTraceSharing(false)); err == nil {
		t.Error("trace dir with sharing disabled was accepted")
	}
}

// TestFanOutSchedulerEquivalence: the batched per-(workload, packet)
// fan-out scheduler (the default) produces a grid deeply equal to live
// execution of every point, the ground truth, and only the batched run
// reports trace work. With two workloads and shards of at most
// maxShardPoints points, the pass count stays far below one-replay-per-sink.
func TestFanOutSchedulerEquivalence(t *testing.T) {
	space := tinySpace()
	space.Workloads = []workloads.Workload{tinyWorkload("tiny-a"), tinyWorkload("tiny-b")}

	batched, err := Run(context.Background(), space, WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	live, err := Run(context.Background(), space, WithTraceSharing(false), WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripCached(batched), stripCached(live)) {
		t.Error("fan-out scheduler diverges from live execution")
	}
	bt, lt := batched.Traces, live.Traces
	if bt.FanOutPasses == 0 || bt.FanOutSinks == 0 || bt.FanOutDeliveries == 0 {
		t.Errorf("batched sweep reported no fan-out work: %+v", bt)
	}
	if lt != (suite.TraceCacheStats{}) {
		t.Errorf("live sweep reported trace work: %+v", lt)
	}
	// 4 points over 2 workloads, each point one controller carrying its 3
	// techniques: the fan-out must feed 4 sinks with at most one pass per
	// (workload, shard).
	if bt.FanOutSinks != 4 || bt.FanOutPasses > 6 {
		t.Errorf("fan-out shape = %d sinks / %d passes, want 4 sinks in <= 6 passes",
			bt.FanOutSinks, bt.FanOutPasses)
	}
	if bt.Replays != len(batched.Points) || bt.Captures != len(space.Workloads) {
		t.Errorf("batched trace stats = %+v, want %d replays / %d captures",
			bt, len(batched.Points), len(space.Workloads))
	}
}
