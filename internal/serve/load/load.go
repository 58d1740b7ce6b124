// Package load is the serve daemon's load harness: it replays N overlapping
// client sweeps against one daemon, computes the unique grid points the
// variant set actually contains (the same content hash the daemon
// deduplicates on), and reports what the service layer promised — one
// simulation per unique point however many clients ask, warm reruns that
// simulate nothing, and warm analytics answered in microseconds.
// tools/loadgen runs it against a live daemon in CI, and the package's own
// test runs it against an in-process server, pinning the exact simulation
// count.
package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"waymemo/internal/explore"
	"waymemo/internal/serve"
	"waymemo/internal/serve/client"
)

// ErrWrongResult is wrapped by Run when Verify finds two clients of the
// same variant holding different grids — the one failure mode the whole
// system promises can never happen, under any fault.
var ErrWrongResult = errors.New("load: wrong result")

// Options configures one load run.
type Options struct {
	// Clients is how many concurrent sweep clients to replay (default 8).
	Clients int
	// Variants are the sweep requests the clients cycle through (client i
	// submits Variants[i % len]); at least one is required. Overlapping
	// variants are the point: the overlap is what the daemon dedups.
	Variants []serve.SweepRequest
	// WarmQueries is how many analytics queries to time per endpoint for
	// the warm-latency figure (default 16).
	WarmQueries int
	// SkipWarm skips the warm rerun + warm query phases.
	SkipWarm bool
	// AllowFailures tolerates clients whose sweeps still fail after the
	// client's retries (chaos runs): they count into Failed/SuccessRate
	// instead of failing the run. At least one client must succeed.
	AllowFailures bool
	// Verify cross-checks every successful client's full grid against the
	// other clients of the same variant, byte for byte. Any divergence is
	// an ErrWrongResult — correctness is never probabilistic, even under
	// fault injection.
	Verify bool
	// CaptureGrid stores variant 0's full grid into Report.Grid, so a
	// kill-resume harness can compare the resumed run's grid bit-for-bit
	// against an uninterrupted reference run.
	CaptureGrid bool
}

// Report is one load run's outcome.
type Report struct {
	Clients int `json:"clients"`
	// Variants is how many distinct sweep requests the clients cycled
	// through; UniquePoints the size of their grid-point union.
	Variants     int `json:"variants"`
	Points       int `json:"points"`        // grid points requested, all clients
	UniquePoints int `json:"unique_points"` // distinct content-addressed points

	// Succeeded and Failed count clients whose sweep completed (after any
	// client-side retries) versus gave up; SuccessRate = Succeeded/Clients.
	Succeeded   int     `json:"succeeded"`
	Failed      int     `json:"failed"`
	SuccessRate float64 `json:"success_rate"`

	// Deltas of the daemon's counters across the run.
	Simulations int64 `json:"simulations"`
	StoreHits   int64 `json:"store_hits"`
	DedupJoins  int64 `json:"dedup_joins"`
	// DedupSweeps counts submissions the daemon absorbed into an existing
	// identical job (idempotent sweep IDs); ResumedSweeps counts sweeps the
	// daemon resurrected from its journal — nonzero only when the daemon
	// (re)booted during the run, which is exactly what a kill-resume
	// harness asserts on.
	DedupSweeps   int64 `json:"dedup_sweeps"`
	ResumedSweeps int64 `json:"resumed_sweeps"`

	// ShedSweeps is how many submissions the daemon's admission controller
	// rejected during the run (each typically retried by the client), and
	// ShedRate that count over all submission outcomes (shed + accepted).
	ShedSweeps int64   `json:"shed_sweeps"`
	ShedRate   float64 `json:"shed_rate"`
	// FaultsInjected is the daemon's injected-fault delta (0 unless it
	// runs with -fault-spec).
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	// VerifiedClients is how many client grids the Verify cross-check
	// compared (0 when Verify is off).
	VerifiedClients int `json:"verified_clients,omitempty"`

	// DedupRate is the fraction of requested points served without a
	// simulation (1 - Simulations/Points).
	DedupRate float64 `json:"dedup_rate"`

	// WarmRerunSimulations counts simulations during the warm rerun of
	// every variant — the service promise is zero.
	WarmRerunSimulations int64 `json:"warm_rerun_simulations"`
	// WarmQueryMS is the median latency of a warm analytics query
	// (candidates/pareto/marginals/optimum, round-robin).
	WarmQueryMS float64 `json:"warm_query_ms"`

	ElapsedMS float64 `json:"elapsed_ms"`

	// Grid is variant 0's full result grid, captured when
	// Options.CaptureGrid is set; excluded from the report's JSON (it can
	// be large) — tools/loadgen writes it to its own file.
	Grid []explore.PointResult `json:"-"`
}

// UniquePoints computes the union of content-addressed grid-point keys the
// variant set expands to — client-side, with the same explore.KeyWorkload
// hash the daemon dedups on, so a cold daemon must report exactly this many
// simulations.
func UniquePoints(variants []serve.SweepRequest) (int, error) {
	keys := map[string]bool{}
	for i, v := range variants {
		sp, err := v.Space()
		if err != nil {
			return 0, fmt.Errorf("load: variant %d: %w", i, err)
		}
		for _, key := range sp.PointKeys() {
			keys[key] = true
		}
	}
	return len(keys), nil
}

// Run replays the load against the daemon behind c and reports.
func Run(ctx context.Context, c *client.Client, opts Options) (*Report, error) {
	if len(opts.Variants) == 0 {
		return nil, fmt.Errorf("load: no sweep variants")
	}
	clients := opts.Clients
	if clients <= 0 {
		clients = 8
	}
	warmQ := opts.WarmQueries
	if warmQ <= 0 {
		warmQ = 16
	}
	unique, err := UniquePoints(opts.Variants)
	if err != nil {
		return nil, err
	}
	before, err := c.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: daemon stats: %w", err)
	}

	// Phase 1: N overlapping clients, every variant in flight at once.
	// Each client drives its sweep through client.Run, so a retry-enabled
	// client rides out shedding, dropped streams and retryable sweep
	// failures on its own; with no retry policy this is plain submit+wait.
	start := time.Now()
	ids := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Run(ctx, opts.Variants[i%len(opts.Variants)], nil)
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	succeeded := 0
	for i, err := range errs {
		if err == nil {
			succeeded++
			continue
		}
		if !opts.AllowFailures {
			return nil, fmt.Errorf("load: client %d: %w", i, err)
		}
	}
	if succeeded == 0 {
		return nil, fmt.Errorf("load: every client failed; first: %w", errs[0])
	}
	elapsed := time.Since(start)

	after, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	// Demand is measured by RequestedPoints: with idempotent sweep IDs, N
	// identical submissions collapse into one job, so the per-point serving
	// counters no longer see each client's grid — but every accepted
	// submission still contributes its grid size to RequestedPoints, which
	// keeps DedupRate meaning "fraction of what clients asked for that
	// needed no simulation".
	points := after.RequestedPoints - before.RequestedPoints
	rep := &Report{
		Clients:       clients,
		Variants:      len(opts.Variants),
		Points:        int(points),
		UniquePoints:  unique,
		Succeeded:     succeeded,
		Failed:        clients - succeeded,
		SuccessRate:   float64(succeeded) / float64(clients),
		Simulations:   after.Simulations - before.Simulations,
		StoreHits:     after.StoreHits - before.StoreHits,
		DedupJoins:    after.DedupJoins - before.DedupJoins,
		DedupSweeps:   after.DedupSweeps - before.DedupSweeps,
		ResumedSweeps: after.ResumedSweeps - before.ResumedSweeps,
		ShedSweeps:    after.ShedSweeps - before.ShedSweeps,
		ElapsedMS:     elapsed.Seconds() * 1000,
	}
	if points > 0 {
		rep.DedupRate = 1 - float64(rep.Simulations)/float64(points)
	}
	if outcomes := rep.ShedSweeps + (after.Sweeps - before.Sweeps); outcomes > 0 {
		rep.ShedRate = float64(rep.ShedSweeps) / float64(outcomes)
	}
	rep.FaultsInjected = faultTotal(after.Faults) - faultTotal(before.Faults)

	// Verification: clients of the same variant must hold bit-identical
	// grids — under faults, under shedding, under retries, always. This is
	// the paper's memoization contract surfacing at the service layer:
	// faults may change cost (who simulated, who joined, who retried) but
	// never results.
	if opts.Verify {
		canonical := map[int]string{} // variant index -> grid JSON
		owner := map[int]int{}
		for i, id := range ids {
			if id == "" {
				continue
			}
			res, err := c.Result(ctx, id)
			if err != nil {
				return nil, fmt.Errorf("load: verify fetch client %d: %w", i, err)
			}
			blob, err := json.Marshal(res.Points)
			if err != nil {
				return nil, err
			}
			v := i % len(opts.Variants)
			if prev, ok := canonical[v]; !ok {
				canonical[v], owner[v] = string(blob), i
			} else if prev != string(blob) {
				return nil, fmt.Errorf("%w: clients %d and %d disagree on variant %d's grid",
					ErrWrongResult, owner[v], i, v)
			}
			rep.VerifiedClients++
		}
	}
	if opts.CaptureGrid {
		for i, id := range ids {
			if id == "" || i%len(opts.Variants) != 0 {
				continue
			}
			res, err := c.Result(ctx, id)
			if err != nil {
				return nil, fmt.Errorf("load: grid capture client %d: %w", i, err)
			}
			rep.Grid = res.Points
			break
		}
		if rep.Grid == nil {
			return nil, fmt.Errorf("load: grid capture: no variant-0 client succeeded")
		}
	}
	if opts.SkipWarm {
		return rep, nil
	}

	// Phase 2: warm rerun of every variant — the store is hot, so the
	// promise is zero additional simulations.
	for _, v := range opts.Variants {
		if _, err := c.Run(ctx, v, nil); err != nil {
			return nil, fmt.Errorf("load: warm rerun: %w", err)
		}
	}
	warm, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	rep.WarmRerunSimulations = warm.Simulations - after.Simulations

	// Phase 3: warm analytics latency on one finished sweep (the first
	// client that succeeded — under AllowFailures that may not be ids[0]).
	id := ""
	for _, cand := range ids {
		if cand != "" {
			id = cand
			break
		}
	}
	lat := make([]time.Duration, 0, warmQ)
	for q := 0; q < warmQ; q++ {
		t0 := time.Now()
		switch q % 4 {
		case 0:
			_, err = c.Candidates(ctx, id)
		case 1:
			_, err = c.Pareto(ctx, id)
		case 2:
			_, err = c.Marginals(ctx, id)
		case 3:
			_, err = c.Optimum(ctx, id)
		}
		if err != nil {
			return nil, fmt.Errorf("load: warm query: %w", err)
		}
		lat = append(lat, time.Since(t0))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rep.WarmQueryMS = lat[len(lat)/2].Seconds() * 1000
	return rep, nil
}

// faultTotal sums a /v1/stats faults map (nil-safe).
func faultTotal(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

// String renders the report for terminals.
func (r *Report) String() string {
	s := fmt.Sprintf(
		"clients         %d (x%d variants), %d succeeded / %d failed (%.1f%%)\n"+
			"points          %d requested, %d unique\n"+
			"served          %d simulated, %d store hits, %d dedup joins\n"+
			"dedup rate      %.1f%%\n"+
			"shed            %d sweeps (%.1f%% of submissions)",
		r.Clients, r.Variants, r.Succeeded, r.Failed, 100*r.SuccessRate,
		r.Points, r.UniquePoints,
		r.Simulations, r.StoreHits, r.DedupJoins,
		100*r.DedupRate, r.ShedSweeps, 100*r.ShedRate)
	if r.DedupSweeps > 0 {
		s += fmt.Sprintf("\nsweep dedup     %d submissions absorbed by identical jobs", r.DedupSweeps)
	}
	if r.ResumedSweeps > 0 {
		s += fmt.Sprintf("\nresumed         %d sweeps resurrected from the journal", r.ResumedSweeps)
	}
	if r.FaultsInjected > 0 {
		s += fmt.Sprintf("\nfaults          %d injected", r.FaultsInjected)
	}
	if r.VerifiedClients > 0 {
		s += fmt.Sprintf("\nverified        %d client grids bit-identical per variant", r.VerifiedClients)
	}
	s += fmt.Sprintf(
		"\nwarm rerun      %d simulations\n"+
			"warm query      %.3f ms (median)\n"+
			"elapsed         %.0f ms",
		r.WarmRerunSimulations, r.WarmQueryMS, r.ElapsedMS)
	return s
}
