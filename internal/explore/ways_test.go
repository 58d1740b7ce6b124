package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/suite"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// perWayPoints runs space once per way count, so that every (sets, line)
// has one associativity and every point attaches alone, and returns each
// point's PointResult bytes by geometry and workload.
func perWayPoints(t *testing.T, space Space) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, w := range space.Ways {
		sp := space
		sp.Ways = []int{w}
		g, err := Run(context.Background(), sp, WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range g.Points {
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprint(p.Geometry, p.Workload)] = b
		}
	}
	return out
}

// checkPerWay compares every point of g with the per-way runs' bytes.
func checkPerWay(t *testing.T, g *Grid, want map[string][]byte) {
	t.Helper()
	for i, b := range pointJSON(t, g) {
		p := g.Points[i]
		if w := want[fmt.Sprint(p.Geometry, p.Workload)]; !bytes.Equal(b, w) {
			t.Fatalf("point %d (%+v %s) differs from its one-geometry run:\n%s\n%s", i, p.Geometry, p.Workload, b, w)
		}
	}
}

// TestGeoSweepWaysGroups runs the benchmark's geo-sweep data space — sets
// {128, 512, 1024} × ways {1, 2, 4} × 32-byte lines, MAB 2 × {4, 8, 16,
// 32}, the paper's seven workloads (two under -short) — and checks that
// the three way counts of each (sets, line) feed one controller: the
// fan-out feeds 3 sinks per workload, 21 in all where it fed one per grid
// point, 63, while Replays still counts every grid point. Every point's
// bytes equal those of a run with its way count alone.
//
// The sweep reads only the data stream, so that is all it captures: the
// spill directory holds one pair per workload, its sidecar naming the data
// stream and no fetch event and its trace file holding none, and the
// fan-out walks each workload's data events once per pass.
func TestGeoSweepWaysGroups(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:2]
	}
	space := Space{Domain: suite.Data, Sets: []int{128, 512, 1024}, Ways: []int{1, 2, 4}, LineBytes: []int{32},
		TagEntries: []int{2}, SetEntries: []int{4, 8, 16, 32}, Workloads: ws}
	dir := t.TempDir()
	g, err := Run(context.Background(), space, WithParallelism(2), WithTraceDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := g.Traces
	if st.FanOutSinks != 3*len(ws) || st.Replays != 9*len(ws) {
		t.Fatalf("fan-out fed %d sinks for %d replays, want %d for %d", st.FanOutSinks, st.Replays, 3*len(ws), 9*len(ws))
	}
	sides, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(sides) != len(ws) {
		t.Fatalf("spill sidecars %v, %v: want one per workload", sides, err)
	}
	var datas int64
	for _, side := range sides {
		var m struct {
			Stream  string `json:"stream"`
			Fetches *int   `json:"fetches"`
			Datas   int    `json:"datas"`
		}
		raw, err := os.ReadFile(side)
		if err == nil {
			err = json.Unmarshal(raw, &m)
		}
		if err != nil || m.Stream != "data" || m.Fetches == nil || *m.Fetches != 0 {
			t.Fatalf("%s: %s, %v: want a data stream of 0 fetches", side, raw, err)
		}
		f, err := os.Open(strings.TrimSuffix(side, ".json") + ".wmtrace")
		if err != nil {
			t.Fatal(err)
		}
		buf, err := trace.ReadBuffer(f)
		f.Close()
		if err != nil || buf.NumFetches() != 0 || buf.NumDatas() != m.Datas {
			t.Fatalf("%s: trace file holds %d fetches and %d datas (%v), sidecar %d datas",
				side, buf.NumFetches(), buf.NumDatas(), err, m.Datas)
		}
		datas += int64(m.Datas)
	}
	// Every workload has the same points and so the same shards.
	if st.FanOutPasses%len(ws) != 0 || st.FanOutEvents != int64(st.FanOutPasses/len(ws))*datas {
		t.Fatalf("%d passes walked %d events, want %d passes per workload × %d data events",
			st.FanOutPasses, st.FanOutEvents, st.FanOutPasses/len(ws), datas)
	}
	checkPerWay(t, g, perWayPoints(t, space))
}

// TestWaysGroupInexactFallback sweeps the fetch domain with 32-byte
// packets over 16-byte lines: a taken branch into the second half of a
// packet fetches a packet outside the line its base and displacement
// name, so a ways group would be inexact. The plan attaches each
// geometry alone instead, and the shard takes one pass that feeds 3
// sinks and counts 3 replays. The bytes equal the per-way runs'.
func TestWaysGroupInexactFallback(t *testing.T) {
	space := Space{Domain: suite.Fetch, Sets: []int{64}, Ways: []int{1, 2, 4}, LineBytes: []int{16},
		TagEntries: []int{2}, SetEntries: []int{8, 16}, Workloads: []workloads.Workload{workloads.DCT()}, PacketBytes: 32}
	g, err := Run(context.Background(), space, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := g.Traces; st.FanOutPasses != 1 || st.FanOutSinks != 3 || st.Replays != 3 {
		t.Fatalf("trace stats %+v, want 1 pass feeding 3 sinks, 3 replays", st)
	}
	checkPerWay(t, g, perWayPoints(t, space))
}

// TestInexactWaysGroupFails: a ways group that reports inexact after its
// pass fails the sweep with an internal error naming the workload and the
// group's geometries, returns no grid, and leaves no result in the cache.
func TestInexactWaysGroupFails(t *testing.T) {
	orig := attachWays
	attachWays = func(geos []cache.Config, techs []suite.Technique, packet uint32) ([]trace.SinkPair, [][]suite.TechResult, func() bool, error) {
		pairs, res, _, err := orig(geos, techs, packet)
		return pairs, res, func() bool { return false }, err
	}
	t.Cleanup(func() { attachWays = orig })
	space := tinySpace()
	space.Ways = []int{1, 2}
	dir := t.TempDir()
	g, err := Run(context.Background(), space, WithParallelism(1), WithCacheDir(dir))
	if g != nil || err == nil || !strings.Contains(err.Error(), "internal error: tiny:") ||
		!strings.Contains(err.Error(), fmt.Sprintf("%+v", cache.Config{Sets: 64, Ways: 2, LineBytes: 32})) {
		t.Fatalf("sweep with an inexact ways group: grid returned %t, err %v; want no grid and an internal error naming tiny and its geometries", g != nil, err)
	}
	if stored, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(stored) != 0 {
		t.Fatalf("a failed sweep stored %d results", len(stored))
	}
}

// TestShardsKeepWaysGroups checks Scheduler.shards at every parallelism:
// each claim lands in exactly one shard, a shard holds one workload and at
// most maxShardPoints points, and a workload's points of one (sets, line)
// share a shard, next to each other, unless there are more than
// maxShardPoints of them.
func TestShardsKeepWaysGroups(t *testing.T) {
	many := make([]int, 70)
	for i := range many {
		many[i] = i + 1
	}
	for _, space := range []Space{
		{Domain: suite.Data, Sets: []int{64, 128, 256}, Ways: []int{1, 2, 4, 8}, LineBytes: []int{16, 32},
			Workloads: []workloads.Workload{tinyWorkload("a"), tinyWorkload("b")}},
		{Domain: suite.Data, Sets: []int{64, 128}, Ways: []int{2}, LineBytes: []int{16, 32, 64},
			Workloads: []workloads.Workload{tinyWorkload("a")}},
		{Domain: suite.Data, Sets: []int{4}, Ways: many, LineBytes: []int{16},
			Workloads: []workloads.Workload{tinyWorkload("a")}},
	} {
		var claims []fanPoint
		for i, pt := range space.Points() {
			claims = append(claims, fanPoint{i: i, pt: pt})
		}
		for _, par := range []int{1, 2, 3, 8, 64} {
			sc := Scheduler{Parallelism: par}
			shards := sc.shards(claims)
			if !reflect.DeepEqual(shards, sc.shards(claims)) {
				t.Fatalf("par %d: shards differ between calls", par)
			}
			seen := map[int]bool{}
			unit := map[string]int{} // (workload, sets, line) → its shard
			units := map[string]int{}
			for _, fp := range claims {
				units[fmt.Sprint(fp.pt.Workload.Name, fp.pt.Geometry.Sets, fp.pt.Geometry.LineBytes)]++
			}
			for si, sh := range shards {
				if len(sh.pts) == 0 || len(sh.pts) > maxShardPoints {
					t.Fatalf("par %d: shard %d holds %d points", par, si, len(sh.pts))
				}
				ended := map[string]bool{} // the units a shard has moved past
				for j, fp := range sh.pts {
					if seen[fp.i] || fp.pt.Workload.Name != sh.w.Name {
						t.Fatalf("par %d: point %d twice or in another workload's shard", par, fp.i)
					}
					seen[fp.i] = true
					k := fmt.Sprint(fp.pt.Workload.Name, fp.pt.Geometry.Sets, fp.pt.Geometry.LineBytes)
					if s, ok := unit[k]; ok && s != si && units[k] <= maxShardPoints {
						t.Fatalf("par %d: the points of %s are split over shards %d and %d", par, k, s, si)
					}
					if ended[k] {
						t.Fatalf("par %d: the points of %s are not next to each other in shard %d", par, k, si)
					}
					if j > 0 {
						if prev := sh.pts[j-1].pt; prev.Geometry.Sets != fp.pt.Geometry.Sets || prev.Geometry.LineBytes != fp.pt.Geometry.LineBytes {
							ended[fmt.Sprint(prev.Workload.Name, prev.Geometry.Sets, prev.Geometry.LineBytes)] = true
						}
					}
					unit[k] = si
				}
			}
			if len(seen) != len(claims) {
				t.Fatalf("par %d: %d of %d points sharded", par, len(seen), len(claims))
			}
		}
	}
}
