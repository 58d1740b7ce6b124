package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"waymemo/internal/suite"
	"waymemo/internal/synth"
	"waymemo/internal/workloads"
)

// randomSynthSpace draws a seeded random design space: two or three
// synthetic specs alternating between the ISAs (FRVL first), each a random
// pattern, footprint and length — some long enough to fill whole trace
// chunks — one to three set counts, one to three way counts and one line
// size, a random MAB list and a random fetch-packet size, on a random
// domain. Two or more way counts give every (sets, line) of the space
// several associativities, which explore simulates as one controller. A
// packet may be larger than the line, so every fetch crosses a line.
func randomSynthSpace(rng *rand.Rand) Space {
	pick := func(vals []int, max int) []int {
		out := slices.Clone(vals)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out[:1+rng.IntN(max)]
	}
	patterns := synth.Patterns()
	var specs []string
	for i := range 2 + rng.IntN(2) {
		prefix := ""
		if i%2 == 1 {
			prefix = workloads.RV32Prefix
		}
		specs = append(specs, fmt.Sprintf("%ssynth:%s,fp=%dKiB,n=%d,seed=%d", prefix,
			patterns[rng.IntN(len(patterns))], 1<<rng.IntN(5), []int{2048, 1 << 14, 1 << 16}[rng.IntN(3)],
			100*i+1+rng.IntN(100)))
	}
	return Space{
		Domain:        []suite.Domain{suite.Data, suite.Fetch}[rng.IntN(2)],
		Sets:          pick([]int{32, 64, 128, 256}, 3),
		Ways:          pick([]int{1, 2, 4}, 3),
		LineBytes:     pick([]int{16, 32, 64}, 1),
		TagEntries:    pick([]int{1, 2}, 2),
		SetEntries:    pick([]int{4, 8, 16}, 2),
		WorkloadSpecs: specs,
		PacketBytes:   []uint32{0, 4, 16, 32, 64}[rng.IntN(5)],
	}
}

// spaceStream is the PCG stream of randomSynthSpace's seeds. Its first two
// seeds draw a space of several way counts and a fetch-domain space whose
// packet is larger than its line, which checkWaysGroups and
// checkWidePackets hold the short oracles to.
const spaceStream = 0xe5

// checkWaysGroups fails t unless enough of the first seeds of
// randomSynthSpace draw two or more way counts, so that the oracles see
// several associativities of one (sets, line): one at least under -short,
// and a third of the seeds at least otherwise.
func checkWaysGroups(t *testing.T, seeds int) {
	t.Helper()
	n := 0
	for seed := 1; seed <= seeds; seed++ {
		if len(randomSynthSpace(rand.New(rand.NewPCG(uint64(seed), spaceStream))).Ways) >= 2 {
			n++
		}
	}
	if n == 0 || (!testing.Short() && 3*n < seeds) {
		t.Fatalf("%d of %d seeds draw two or more way counts", n, seeds)
	}
}

// checkWidePackets fails t unless one of the first seeds of
// randomSynthSpace at least draws a fetch-domain space whose packet is
// larger than its line, so that the oracles compare fetch streams whose
// every packet crosses a line, attached one geometry at a time by the plan.
func checkWidePackets(t *testing.T, seeds int) {
	t.Helper()
	for seed := 1; seed <= seeds; seed++ {
		s := randomSynthSpace(rand.New(rand.NewPCG(uint64(seed), spaceStream)))
		if s.Domain == suite.Fetch && int(s.PacketBytes) > s.LineBytes[0] {
			return
		}
	}
	t.Fatalf("none of %d seeds draws a fetch packet larger than the line", seeds)
}

// pointJSON renders a grid's points as the bytes the result cache stores.
func pointJSON(t *testing.T, g *Grid) [][]byte {
	t.Helper()
	out := make([][]byte, len(g.Points))
	for i, p := range g.Points {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestRandomSpacesCacheAndSpillPaths is the differential oracle over the
// result cache and the trace spills: on seeded random spaces (synthetic
// specs on both ISAs, one to three geometries, random MAB lists), a warm
// rerun served wholly from the result cache, and a run on a fresh result
// cache that reloads every trace from the spills of the first, each give
// exactly the PointResult bytes of the cold run that captured and spilled.
func TestRandomSpacesCacheAndSpillPaths(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	checkWaysGroups(t, seeds)
	checkWidePackets(t, seeds)
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			space := randomSynthSpace(rand.New(rand.NewPCG(uint64(seed), spaceStream)))
			traces := t.TempDir()
			cacheDir := t.TempDir()
			run := func(dir string) *Grid {
				g, err := Run(context.Background(), space, WithParallelism(2),
					WithCacheDir(dir), WithTraceDir(traces))
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			nw := len(space.WorkloadSpecs)

			cold := run(cacheDir)
			if cold.Hits != 0 || cold.Misses != len(cold.Points) || cold.Traces.Captures != nw {
				t.Fatalf("cold run: hits %d, misses %d of %d points, %d captures of %d workloads",
					cold.Hits, cold.Misses, len(cold.Points), cold.Traces.Captures, nw)
			}
			want := pointJSON(t, cold)

			warm := run(cacheDir)
			if warm.Misses != 0 || warm.Hits != len(warm.Points) {
				t.Fatalf("warm run: %d misses, want 0", warm.Misses)
			}
			reloaded := run(t.TempDir())
			if reloaded.Traces.DiskLoads != nw || reloaded.Traces.Captures != 0 {
				t.Fatalf("fresh cache over the spills: %d disk loads and %d captures, want %d and 0",
					reloaded.Traces.DiskLoads, reloaded.Traces.Captures, nw)
			}
			for name, g := range map[string]*Grid{"warm": warm, "spill reload": reloaded} {
				got := pointJSON(t, g)
				if len(got) != len(want) {
					t.Fatalf("%s run: %d points, cold %d", name, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s run, point %d differs from the cold run:\n%s\n%s", name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRandomSpacesMixedDomains is the differential oracle over a trace
// cache and spill directory shared by sweeps of both domains, which read
// different streams. On seeded random spaces it runs, in a seeded random
// order, the space's data sweep, its fetch sweep and a suite.Run of the
// standard techniques with that cache, and then the three again in the
// same order on a fresh cache over the same spills. Every grid and result
// is byte-identical to a cold run without a trace cache, and the first
// pass captures exactly what was predicted: each run that reads a stream
// no earlier run read simulates once per workload, and every other run
// simulates nothing. The second pass makes the same number of disk loads
// instead, and no capture.
func TestRandomSpacesMixedDomains(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	ctx := context.Background()
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(seed), 0x3d))
			base, err := randomSynthSpace(rng).Normalize()
			if err != nil {
				t.Fatal(err)
			}
			nw := len(base.Workloads)
			type run struct {
				name    string
				streams []suite.Domain
				do      func(tc *suite.TraceCache) []byte
			}
			sweep := func(d suite.Domain) run {
				space := base
				space.Domain = d
				return run{"explore " + d.String(), []suite.Domain{d}, func(tc *suite.TraceCache) []byte {
					g, err := Scheduler{Traces: tc, Parallelism: 2}.Run(ctx, space)
					if err != nil {
						t.Fatal(err)
					}
					return bytes.Join(pointJSON(t, g), []byte("\n"))
				}}
			}
			runs := []run{sweep(suite.Data), sweep(suite.Fetch), {"suite.Run", []suite.Domain{suite.Data, suite.Fetch},
				func(tc *suite.TraceCache) []byte {
					opts := []suite.Option{suite.WithWorkloads(base.Workloads...), suite.WithPacketBytes(base.PacketBytes),
						suite.WithGeometry(base.Geometries()[0]), suite.WithParallelism(2)}
					if tc != nil {
						opts = append(opts, suite.WithTraceCache(tc))
					}
					r, err := suite.Run(ctx, opts...)
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}}}
			cold := make([][]byte, len(runs))
			for i, r := range runs {
				cold[i] = r.do(nil)
			}

			order := rng.Perm(len(runs))
			dir := t.TempDir()
			for pass := range 2 {
				tc, err := suite.NewDirTraceCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[suite.Domain]bool{}
				for _, i := range order {
					r := runs[i]
					fills := 0
					for _, d := range r.streams {
						if !seen[d] {
							fills = nw
						}
						seen[d] = true
					}
					want := suite.TraceCacheStats{Captures: fills}
					if pass == 1 {
						want = suite.TraceCacheStats{DiskLoads: fills}
					}
					before := tc.Stats()
					if got := r.do(tc); !bytes.Equal(got, cold[i]) {
						t.Fatalf("pass %d, order %v: %s differs from its cold run", pass, order, r.name)
					}
					st := tc.Stats()
					if got := (suite.TraceCacheStats{Captures: st.Captures - before.Captures,
						DiskLoads: st.DiskLoads - before.DiskLoads}); got != want {
						t.Fatalf("pass %d, order %v: %s made %d captures and %d disk loads, want %d and %d",
							pass, order, r.name, got.Captures, got.DiskLoads, want.Captures, want.DiskLoads)
					}
				}
			}
		})
	}
}

// TestRandomSpacesLiveSuiteRun is the differential oracle's live path: on
// the same seeded random spaces, a live suite.Run per geometry (the
// space's techniques, workloads and packet size, no trace cache), priced
// through assemblePoint, gives exactly the PointResult bytes of a cold
// explore.Run that captures each workload once and replays it.
func TestRandomSpacesLiveSuiteRun(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	checkWaysGroups(t, seeds)
	checkWidePackets(t, seeds)
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			space, err := randomSynthSpace(rand.New(rand.NewPCG(uint64(seed), spaceStream))).Normalize()
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Run(context.Background(), space, WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			want := pointJSON(t, cold)

			techs := space.Techniques()
			live := &Grid{}
			for _, geo := range space.Geometries() {
				r, err := suite.Run(context.Background(), suite.WithGeometry(geo),
					suite.WithTechniques(techs...), suite.WithWorkloads(space.Workloads...),
					suite.WithPacketBytes(space.PacketBytes), suite.WithParallelism(2))
				if err != nil {
					t.Fatal(err)
				}
				for wi, br := range r.Benchmarks {
					res := make([]suite.TechResult, len(techs))
					for i, tech := range techs {
						if tech.Domain == suite.Data {
							res[i] = br.D[tech.ID]
						} else {
							res[i] = br.I[tech.ID]
						}
					}
					pt := Point{Geometry: geo, Workload: space.Workloads[wi]}
					live.Points = append(live.Points, *assemblePoint(pt, techs, res, br.Cycles, br.Instrs))
				}
			}
			got := pointJSON(t, live)
			if len(got) != len(want) {
				t.Fatalf("live suite runs: %d points, cold explore %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("point %d: live suite run differs from the cold explore run:\n%s\n%s", i, got[i], want[i])
				}
			}
		})
	}
}
