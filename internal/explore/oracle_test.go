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
// chunks — one to three geometries and a random MAB list, on a random
// domain.
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
		Ways:          pick([]int{1, 2, 4}, 1),
		LineBytes:     pick([]int{16, 32, 64}, 1),
		TagEntries:    pick([]int{1, 2}, 2),
		SetEntries:    pick([]int{4, 8, 16}, 2),
		WorkloadSpecs: specs,
	}
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
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			space := randomSynthSpace(rand.New(rand.NewPCG(uint64(seed), 0xe4)))
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
