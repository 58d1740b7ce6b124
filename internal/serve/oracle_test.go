package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"waymemo/internal/explore"
)

// oracleWorkloads is the workload pool of the random design spaces: one
// spec per synthetic pattern, small enough to capture in about a
// millisecond, and one paper benchmark.
var oracleWorkloads = []string{
	"synth:hotloop,fp=1KiB,n=2048",
	"synth:branchy,fp=1KiB,n=2048",
	"synth:pchase,fp=4KiB,n=2048",
	"synth:stream,fp=2KiB,n=2048",
	"synth:blocked,fp=2KiB,n=2048",
	"synth:phase,fp=2KiB,n=2048",
	"FFT",
}

// pick is a random non-empty subset of vals of at most max values, in
// random order.
func pick[T any](rng *rand.Rand, vals []T, max int) []T {
	out := slices.Clone(vals)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:1+rng.IntN(min(max, len(out)))]
}

// oracleSweeps draws one random design space and n sweeps over it that
// overlap: each asks a subset of the space's geometry axes and workloads
// with the space's MAB list and fetch-packet size, so their grids share
// points. The packet may be larger than the line. The last sweep
// is the first with its workload order reversed — the same points,
// resolved in crossing order.
func oracleSweeps(rng *rand.Rand, n int) []SweepRequest {
	base := SweepRequest{
		Domain:     []string{"data", "fetch"}[rng.IntN(2)],
		Sets:       pick(rng, []int{16, 32, 64, 128, 256}, 3),
		Ways:       pick(rng, []int{1, 2, 4}, 2),
		LineBytes:  pick(rng, []int{16, 32, 64}, 2),
		TagEntries: pick(rng, []int{1, 2}, 2),
		SetEntries: pick(rng, []int{4, 8, 16}, 2),
		Workloads:  pick(rng, oracleWorkloads, 3),
	}
	base.PacketBytes = []uint32{0, 4, 16, 32, 64}[rng.IntN(5)]
	out := []SweepRequest{base}
	for len(out) < n-1 {
		r := base
		r.Sets = pick(rng, base.Sets, len(base.Sets))
		r.Ways = pick(rng, base.Ways, len(base.Ways))
		r.LineBytes = pick(rng, base.LineBytes, len(base.LineBytes))
		r.Workloads = pick(rng, base.Workloads, len(base.Workloads))
		out = append(out, r)
	}
	crossed := out[0]
	crossed.Workloads = slices.Clone(crossed.Workloads)
	slices.Reverse(crossed.Workloads)
	return append(out, crossed)
}

// TestDaemonMatchesExploreRandomSpaces is the daemon's differential
// oracle: overlapping sweeps over seeded random design spaces (geometry,
// MAB tags x sets, paper and synthetic workloads, one to three workloads
// so shards group by workload), submitted at once to one in-process
// daemon, must each produce exactly the PointResult bytes of a cold
// explore.Run, simulate each unique grid point once, and finish before a
// deadline — at one simulation slot and at two.
func TestDaemonMatchesExploreRandomSpaces(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed%d/par%d", seed, par), func(t *testing.T) {
				reqs := oracleSweeps(rand.New(rand.NewPCG(uint64(seed), 0)), 4)
				s := newTestServer(t, 0, par)
				jobs := make([]*Job, len(reqs))
				var wg sync.WaitGroup
				for i, req := range reqs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						job, err := s.Submit(req)
						if err != nil {
							t.Errorf("submit %+v: %v", req, err)
							return
						}
						jobs[i] = job
					}()
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}

				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				unique := map[string]bool{}
				for i, job := range jobs {
					st, err := job.Wait(ctx)
					if err != nil {
						t.Fatalf("sweep %d (%+v) not finished within the deadline: %v", i, reqs[i], err)
					}
					if st.State != "done" {
						t.Fatalf("sweep %d finished %s: %s", i, st.State, st.Error)
					}
					sp := job.space
					for _, pt := range sp.Points() {
						unique[explore.KeyWorkload(sp.Domain, pt.Geometry, pt.Workload, sp.PacketBytes, sp.MABs())] = true
					}
					want, err := explore.Run(context.Background(), sp, explore.WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					grid, _, _ := job.result()
					if len(grid.Points) != len(want.Points) {
						t.Fatalf("sweep %d: %d points, explore.Run %d", i, len(grid.Points), len(want.Points))
					}
					for p := range want.Points {
						got, _ := json.Marshal(grid.Points[p])
						ref, _ := json.Marshal(want.Points[p])
						if !bytes.Equal(got, ref) {
							t.Fatalf("sweep %d point %d differs from explore.Run:\n%s\n%s", i, p, got, ref)
						}
					}
				}
				if sims := s.Stats().Simulations; sims != int64(len(unique)) {
					t.Fatalf("simulations = %d, want %d (one per unique grid point)", sims, len(unique))
				}
			})
		}
	}
}
