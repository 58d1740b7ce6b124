package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"waymemo/internal/explore"
)

// tinySpec is a synthetic workload small enough that one grid point
// simulates in milliseconds.
const tinySpec = "synth:hotloop,fp=1KiB,n=2048"

// tinySpec2 is a second tiny workload, for grids that span two shards.
const tinySpec2 = "synth:hotloop,fp=2KiB,n=2048"

func newTestServer(t *testing.T, budget int64, par int) *Server {
	t.Helper()
	s, err := New(Config{StoreDir: t.TempDir(), StoreBudget: budget, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// tinyReq is a one-workload sweep over the given sets axis: len(sets) grid
// points, baseline + one MAB technique each.
func tinyReq(sets ...int) SweepRequest {
	return SweepRequest{
		Sets:       sets,
		TagEntries: []int{1},
		SetEntries: []int{4},
		Workloads:  []string{tinySpec},
	}
}

func waitJob(t *testing.T, job *Job) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s: %v", job.ID(), err)
	}
	if st.State != "done" {
		t.Fatalf("job %s finished %s: %s", job.ID(), st.State, st.Error)
	}
	return st
}

// TestServerSingleflightDedup is the satellite's contract: K concurrent
// overlapping sweeps cost exactly one simulation per unique grid point —
// and exactly one suite execution — however they interleave. Identical
// submissions collapse onto one job (idempotent content-hashed IDs); the
// distinct-but-overlapping pair shares its common point through the store
// or by joining the in-flight simulation.
func TestServerSingleflightDedup(t *testing.T) {
	s := newTestServer(t, 0, 2)
	const K = 12

	jobs := make([]*Job, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := tinyReq(64)
			if i%2 == 1 {
				req = tinyReq(64, 128)
			}
			job, err := s.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = job
		}(i)
	}
	wg.Wait()

	ids := map[string]bool{}
	for i, job := range jobs {
		if job == nil {
			t.FailNow()
		}
		ids[job.ID()] = true
		st := waitJob(t, job)
		m := st.Metrics
		want := 1 + i%2
		if m.Done != want || m.StoreHits+m.DedupJoins+m.Simulated != want {
			t.Errorf("job %s metrics don't add up: %+v, want %d done", st.ID, m, want)
		}
	}
	if len(ids) != 2 {
		t.Errorf("K=%d submissions over 2 distinct requests made %d jobs, want 2", K, len(ids))
	}
	stats := s.Stats()
	if stats.Simulations != 2 {
		t.Errorf("server simulations = %d, want 2 (one per unique grid point)", stats.Simulations)
	}
	if stats.Traces.Captures != 1 {
		t.Errorf("suite executions (trace captures) = %d, want 1", stats.Traces.Captures)
	}
	if stats.Sweeps != K || stats.DedupSweeps != K-2 {
		t.Errorf("sweeps=%d dedup=%d, want %d/%d", stats.Sweeps, stats.DedupSweeps, K, K-2)
	}
	if stats.RequestedPoints != 3*K/2 {
		t.Errorf("requested points = %d, want %d", stats.RequestedPoints, 3*K/2)
	}
	if stats.InFlightPoints != 0 {
		t.Errorf("inflight points after completion = %d", stats.InFlightPoints)
	}
}

// getJSON fetches url and decodes the JSON body into out, asserting the
// status code.
func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// postSweep submits a request over HTTP and returns the sweep ID.
func postSweep(t *testing.T, base string, req SweepRequest) SubmitResponse {
	t.Helper()
	blob, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d, want 202", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// followEvents consumes the sweep's SSE stream to its terminal "done" event
// and returns the point events plus the final status.
func followEvents(t *testing.T, base, id string) ([]Event, JobStatus) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	var (
		events []Event
		final  JobStatus
		event  string
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "point":
				var ev Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad point event %q: %v", data, err)
				}
				events = append(events, ev)
			case "done":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("bad done event %q: %v", data, err)
				}
				return events, final
			}
		}
	}
	t.Fatalf("SSE stream ended without a done event (%v)", sc.Err())
	return nil, JobStatus{}
}

func TestServerHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, 0, 2)
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub := postSweep(t, ts.URL, tinyReq(64, 128))
	if sub.Points != 2 {
		t.Fatalf("submitted points = %d, want 2", sub.Points)
	}

	// The SSE stream replays from the start, so subscribing after submit
	// still sees every event: 2 starts, 2 dones, then the terminal status.
	events, final := followEvents(t, ts.URL, sub.ID)
	var starts, dones int
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Total != 2 {
			t.Errorf("event total = %d, want 2", ev.Total)
		}
		switch ev.Status {
		case "start":
			starts++
		case "done":
			dones++
			seen[ev.Index] = true
			if ev.Source != SourceSimulated {
				t.Errorf("cold point %d served from %q, want simulated", ev.Index, ev.Source)
			}
		}
	}
	if starts != 2 || dones != 2 || !seen[0] || !seen[1] {
		t.Fatalf("SSE events: %d starts, %d dones, indices %v", starts, dones, seen)
	}
	if final.State != "done" || final.Metrics.Simulated != 2 {
		t.Fatalf("terminal status = %+v", final)
	}

	var st JobStatus
	getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, http.StatusOK, &st)
	if st.State != "done" || st.Metrics.Done != 2 {
		t.Fatalf("status = %+v", st)
	}

	var res ResultResponse
	getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID+"/result", http.StatusOK, &res)
	if len(res.Points) != 2 || res.Points[0].Cycles == 0 {
		t.Fatalf("result: %d points, first cycles %d", len(res.Points), res.Points[0].Cycles)
	}

	// Warm analytics: every endpoint answers from the finished grid.
	var cands, pareto []explore.Candidate
	var marg []explore.Marginal
	var opt OptimumResponse
	getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID+"/candidates", http.StatusOK, &cands)
	getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID+"/pareto", http.StatusOK, &pareto)
	getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID+"/marginals", http.StatusOK, &marg)
	getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID+"/optimum", http.StatusOK, &opt)
	if len(cands) == 0 || len(pareto) == 0 || len(marg) == 0 || opt.Optimum.ID == "" {
		t.Fatalf("warm analytics empty: %d candidates, %d pareto, %d marginals, optimum %q",
			len(cands), len(pareto), len(marg), opt.Optimum.ID)
	}

	var stats ServerStats
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Simulations != 2 {
		t.Fatalf("simulations after cold sweep = %d, want 2", stats.Simulations)
	}

	// Resubmitting the identical sweep is idempotent: the content-hashed ID
	// maps it onto the completed job — same ID back, no new work at all.
	resub := postSweep(t, ts.URL, tinyReq(64, 128))
	if resub.ID != sub.ID {
		t.Fatalf("identical resubmit got ID %s, want %s", resub.ID, sub.ID)
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Simulations != 2 || stats.DedupSweeps != 1 {
		t.Fatalf("idempotent resubmit: %d simulations / %d dedup sweeps, want 2 / 1",
			stats.Simulations, stats.DedupSweeps)
	}

	// A warm superset sweep is a distinct job but reuses the store: its two
	// overlapping points are store hits, only the new one simulates.
	warm := postSweep(t, ts.URL, tinyReq(64, 128, 256))
	if warm.ID == sub.ID {
		t.Fatalf("superset sweep shares ID %s with the original", warm.ID)
	}
	_, warmFinal := followEvents(t, ts.URL, warm.ID)
	if warmFinal.Metrics.StoreHits != 2 || warmFinal.Metrics.Simulated != 1 {
		t.Fatalf("warm superset metrics = %+v, want 2 store hits, 1 simulated", warmFinal.Metrics)
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Simulations != 3 {
		t.Fatalf("warm superset: %d total simulations, want 3", stats.Simulations)
	}

	// Error paths.
	getJSON(t, ts.URL+"/v1/sweeps/nope", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/sweeps/nope/candidates", http.StatusNotFound, nil)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body POST = %d, want 400", resp.StatusCode)
	}
	blob, _ := json.Marshal(SweepRequest{Domain: "bogus"})
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus domain POST = %d, want 400", resp.StatusCode)
	}
}

// TestServerEvictionCorrectness: with a budget too small to keep anything,
// every sweep's epilogue evicts the store — and a rerun re-simulates to
// bit-identical results. Eviction costs time, never correctness.
func TestServerEvictionCorrectness(t *testing.T) {
	s := newTestServer(t, 1, 2)

	run := func() []explore.PointResult {
		job, err := s.Submit(tinyReq(64, 128))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job)
		grid, _, ok := job.result()
		if !ok {
			t.Fatal("no result")
		}
		pts := make([]explore.PointResult, len(grid.Points))
		copy(pts, grid.Points)
		for i := range pts {
			pts[i].Cached = false
		}
		// Forget the completed job so the idempotent resubmission below
		// actually re-executes instead of absorbing into it.
		s.jobsMu.Lock()
		delete(s.jobs, job.ID())
		s.order = nil
		s.jobsMu.Unlock()
		return pts
	}

	first := run()
	stats := s.Stats()
	if stats.Store.ResultEvictions < 2 {
		t.Fatalf("budget=1: %d result evictions after sweep, want >= 2", stats.Store.ResultEvictions)
	}
	if stats.Store.ResultEntries != 0 || stats.Store.TraceFiles != 0 {
		t.Fatalf("budget=1: store not empty after epilogue: %+v", stats.Store)
	}

	second := run()
	stats = s.Stats()
	if stats.Simulations != 4 {
		t.Fatalf("evicted store must re-simulate: %d simulations, want 4", stats.Simulations)
	}
	if len(first) != len(second) {
		t.Fatalf("grid sizes differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.Cycles != b.Cycles || a.Instrs != b.Instrs || len(a.Techs) != len(b.Techs) {
			t.Fatalf("point %d differs after eviction: %+v vs %+v", i, a, b)
		}
		for j := range a.Techs {
			if a.Techs[j] != b.Techs[j] {
				t.Fatalf("point %d tech %d differs after eviction:\n%+v\n%+v", i, j, a.Techs[j], b.Techs[j])
			}
		}
	}
}

// TestServerMaxJobs: finished jobs beyond the cap are forgotten oldest
// first; the newest stays queryable.
func TestServerMaxJobs(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Parallelism: 1, MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var first, last *Job
	for i, sets := range [][]int{{64}, {128}, {256}, {512}} {
		job, err := s.Submit(tinyReq(sets...))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job)
		if i == 0 {
			first = job
		}
		last = job
	}
	s.jobsMu.Lock()
	n := len(s.jobs)
	s.jobsMu.Unlock()
	if n > 2 {
		t.Fatalf("job table holds %d jobs, cap is 2", n)
	}
	if _, ok := s.job(last.ID()); !ok {
		t.Fatalf("newest job %s forgotten", last.ID())
	}
	if _, ok := s.job(first.ID()); ok {
		t.Fatalf("oldest job %s survived past the cap", first.ID())
	}
}

// TestSubmitRejectsOversizedGeometry: a geometry the cache model cannot
// hold (over cache.MaxLines lines, or no tag bits left on 32-bit
// addresses) is a 400 at the HTTP boundary. Nothing is journaled, so a
// restart on the same store resumes nothing, and the daemon stays ready
// and keeps serving valid sweeps.
func TestSubmitRejectsOversizedGeometry(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{StoreDir: dir, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	for _, body := range []string{
		`{"sets":[1073741824]}`,                  // 2^30 lines
		`{"sets":[64],"ways":[16385]}`,           // one line over the cap
		`{"sets":[134217728],"line_bytes":[32]}`, // 32 address bits, no tag
		`{"sets":[2],"line_bytes":[2147483648]}`, // likewise
		`{"sets":[512,1073741824],"ways":[1,2]}`, // one bad value spoils the axis
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, nil)
	var stats ServerStats
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Sweeps != 0 {
		t.Fatalf("rejected submissions created %d sweeps", stats.Sweeps)
	}
	ts.Close()
	s.Close()

	s, err = New(Config{StoreDir: dir, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts = httptest.NewServer(s)
	defer ts.Close()
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.ResumedSweeps != 0 {
		t.Fatalf("restart resumed %d sweeps, want 0", stats.ResumedSweeps)
	}
	sub := postSweep(t, ts.URL, tinyReq(64))
	if _, final := followEvents(t, ts.URL, sub.ID); final.State != "done" {
		t.Fatalf("valid sweep after rejections finished %s", final.State)
	}
}

// TestSubmitRejectsOversizedMABGrid: every MAB size of 1..64 x 1..64 is
// within core.MaxPairs, but over a 2^20-set cache each keeps a 4 MiB
// reverse map, 16 GiB per grid point. The daemon must answer 400 without
// allocating any of it or journaling anything.
func TestSubmitRejectsOversizedMABGrid(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	defer ts.Close()
	axis := make([]string, 64)
	for i := range axis {
		axis[i] = strconv.Itoa(i + 1)
	}
	list := "[" + strings.Join(axis, ",") + "]"
	body := `{"sets":[1048576],"ways":[1],"line_bytes":[1],"mab_tags":` + list + `,"mab_sets":` + list + `}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST 4096 MAB sizes over 2^20 sets = %d, want 400", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("rejecting the sweep allocated %d MiB", grew>>20)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, nil)
	var stats ServerStats
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Sweeps != 0 || stats.JournalRecords != 0 {
		t.Fatalf("rejected submission created %d sweeps, %d journal records", stats.Sweeps, stats.JournalRecords)
	}
}

// TestSubmitRejectsLongGeometryAxes: POST /v1/sweeps has no body limit, so
// long geometry axes must be judged by their values and their product's
// size before the cross product is expanded. 3000 invalid set counts
// against 3000 ways (9M geometries from 33 KB of JSON) and valid axes
// whose product passes explore.MaxPoints are both a 400 that allocates in
// proportion to the request, with nothing journaled.
func TestSubmitRejectsLongGeometryAxes(t *testing.T) {
	s := newTestServer(t, 0, 1)
	list := func(n int, v func(int) int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = v(i)
		}
		return out
	}
	ways := list(3000, func(i int) int { return i + 1 })
	for _, req := range []SweepRequest{
		{Sets: list(3000, func(i int) int { return -1 - i }), Ways: ways, Workloads: []string{tinySpec}},
		{Sets: list(21, func(i int) int { return 1 << i }), Ways: ways,
			LineBytes: list(12, func(i int) int { return 1 << i }), Workloads: []string{tinySpec}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %d sets x %d ways x %d lines = %d, want 400",
				len(req.Sets), len(req.Ways), len(req.LineBytes), rec.Code)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("rejecting %d bytes of sweep JSON allocated %d MiB", len(body), grew>>20)
		}
	}
	if st := s.Stats(); st.Sweeps != 0 || st.JournalRecords != 0 {
		t.Fatalf("rejected submissions created %d sweeps, %d journal records", st.Sweeps, st.JournalRecords)
	}
}

// TestSubmitRejectsOversizedMAB: a MAB size whose Nt×Ns cross-product
// exceeds core.MaxPairs would allocate gigabytes per technique instance —
// an out-of-memory crash no panic containment can catch, replayed on every
// restart once journaled. The daemon must refuse it at the boundary: 400,
// nothing journaled, still ready, and a valid sweep still runs.
func TestSubmitRejectsOversizedMAB(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, body := range []string{
		`{"mab_sets":[1073741824]}`,                         // 8 GiB per instance
		`{"mab_tags":[4],"mab_sets":[1025]}`,                // one set over the cap
		`{"mab_tags":[1099511627776],"mab_sets":[4194304]}`, // product overflows int64
		`{"mab_tags":[2],"mab_sets":[8,1048576]}`,           // one bad value spoils the axis
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, nil)
	var stats ServerStats
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Sweeps != 0 || stats.JournalRecords != 0 {
		t.Fatalf("rejected submissions created %d sweeps, %d journal records",
			stats.Sweeps, stats.JournalRecords)
	}
	sub := postSweep(t, ts.URL, tinyReq(64))
	if _, final := followEvents(t, ts.URL, sub.ID); final.State != "done" {
		t.Fatalf("valid sweep after rejections finished %s", final.State)
	}
}
