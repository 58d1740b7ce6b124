package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"waymemo/internal/explore"
	"waymemo/internal/fault"
)

func mustFaults(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	inj, err := fault.NewFromString(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestStoreBootRecovery plants every kind of crash debris a killed daemon
// can leave — a leftover atomic-write temp, a torn result entry, a torn
// trace pair, an orphaned trace half — and asserts the reopening sweep
// removes or quarantines each while adopting the intact entries.
func TestStoreBootRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Put(fmt.Sprintf("k%d", i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	resDir := st.ResultDir()
	trDir := st.TraceDir()

	// Torn result: truncate k1's entry to half, as a crash that beat the
	// fsync would.
	p := filepath.Join(resDir, "k1.json")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Leftover atomic-write temps in both directories.
	for _, tmp := range []string{filepath.Join(resDir, "k9.json.tmp123"), filepath.Join(trDir, "cap.wmtrace.tmp9")} {
		if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Torn trace pair: a sidecar that parses but a trace file that is
	// garbage (fails its checksummed decode); and an orphaned half.
	if err := os.WriteFile(filepath.Join(trDir, "torn.json"), []byte(`{"version":2,"fetches":5,"datas":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(trDir, "torn.wmtrace"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(trDir, "orphan.wmtrace"), []byte("half a pair"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := re.Stats()
	if s.RecoveredResults != 1 || s.RecoveredTraces != 2 || s.RecoveredTemps != 2 {
		t.Fatalf("recovery counters = %d results, %d traces, %d temps; want 1, 2, 2",
			s.RecoveredResults, s.RecoveredTraces, s.RecoveredTemps)
	}
	if s.ResultEntries != 1 {
		t.Errorf("adopted %d results, want just the intact k0", s.ResultEntries)
	}
	if pr, ok := re.Get("k0"); !ok || pr.Workload != "w0" {
		t.Errorf("intact entry k0 lost in recovery: ok=%v pr=%+v", ok, pr)
	}
	if _, ok := re.Get("k1"); ok {
		t.Error("torn entry k1 served after recovery")
	}
	// Quarantine renames, never deletes: the evidence survives for a human,
	// invisible to the store's scans.
	for _, name := range []string{
		filepath.Join(resDir, "k1.json.bad"),
		filepath.Join(trDir, "torn.wmtrace.bad"),
		filepath.Join(trDir, "torn.json.bad"),
		filepath.Join(trDir, "orphan.wmtrace.bad"),
	} {
		if _, err := os.Stat(name); err != nil {
			t.Errorf("quarantine file %s: %v", filepath.Base(name), err)
		}
	}
	if s.TraceFiles != 0 {
		t.Errorf("store still counts %d trace pairs after quarantine", s.TraceFiles)
	}
	// A second reopen finds nothing left to recover — recovery converges.
	re2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2 := re2.Stats(); s2.RecoveredResults+s2.RecoveredTraces+s2.RecoveredTemps != 0 {
		t.Errorf("second boot recovered again: %+v", s2)
	}
}

// TestStoreCrashWriteMatrix kills the writer in every injectable way during
// a Put, then reopens the store and asserts the full contract: the failure
// surfaces (or, for the lying torn write, is caught at boot), recovery
// sweeps the debris, and the key is simply cold — a clean rewrite works.
func TestStoreCrashWriteMatrix(t *testing.T) {
	cases := []struct {
		kind        string
		putFails    bool
		wantTemps   int64 // temp files the crash leaves for recovery
		wantResults int64 // torn entries recovery must quarantine
	}{
		{kind: "err", putFails: true},
		{kind: "enospc", putFails: true},
		{kind: "shortwrite", putFails: true, wantTemps: 1},
		{kind: "rename", putFails: true, wantTemps: 1},
		{kind: "fsync", putFails: true},
		{kind: "tornwrite", putFails: false, wantResults: 1},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			dir := t.TempDir()
			fs := fault.FS{Inj: mustFaults(t, "io.result.write:"+c.kind+":1")}
			st, err := OpenStoreFS(dir, 0, fs)
			if err != nil {
				t.Fatal(err)
			}
			err = st.Put("k", fakeResult(0))
			if c.putFails != (err != nil) {
				t.Fatalf("Put under %s: err=%v, want failure=%v", c.kind, err, c.putFails)
			}
			if err != nil && !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Put error %v does not identify as injected", err)
			}

			re, err := OpenStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			s := re.Stats()
			if s.RecoveredTemps != c.wantTemps || s.RecoveredResults != c.wantResults {
				t.Fatalf("recovered %d temps, %d results; want %d, %d",
					s.RecoveredTemps, s.RecoveredResults, c.wantTemps, c.wantResults)
			}
			if _, ok := re.Get("k"); ok {
				t.Fatal("crashed write served as a result")
			}
			// The key is cold, not poisoned.
			if err := re.Put("k", fakeResult(0)); err != nil {
				t.Fatal(err)
			}
			if pr, ok := re.Get("k"); !ok || pr.Workload != "w0" {
				t.Fatalf("rewrite after recovery: ok=%v pr=%+v", ok, pr)
			}
		})
	}
}

// strippedGrid clones a finished job's points with the per-run Cached flag
// cleared, for bit-identical comparison across servers and restarts.
func strippedGrid(t *testing.T, job *Job) []explore.PointResult {
	t.Helper()
	grid, _, ok := job.result()
	if !ok {
		t.Fatal("no result")
	}
	pts := make([]explore.PointResult, len(grid.Points))
	copy(pts, grid.Points)
	for i := range pts {
		pts[i].Cached = false
	}
	return pts
}

func gridsEqual(t *testing.T, a, b []explore.PointResult) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}

// TestServerTornWriteRestartRerun is the crash matrix end to end: a daemon
// whose every store and spill write is silently torn (rename lands, data
// does not — the lying-disk case) still completes its sweep correctly from
// memory; a restarted daemon quarantines the torn files at boot instead of
// serving them, and the rerun re-simulates to a bit-identical grid. Crashes
// cost simulations, never answers.
func TestServerTornWriteRestartRerun(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{StoreDir: dir, Parallelism: 2,
		Faults: mustFaults(t, "io.result.write:tornwrite:1;io.trace.write:tornwrite:1")})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s1.Submit(tinyReq(64, 128))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	first := strippedGrid(t, job)
	if got := s1.Stats(); got.Simulations != 2 {
		t.Fatalf("torn-write sweep simulated %d, want 2", got.Simulations)
	}
	s1.Close()

	s2, err := New(Config{StoreDir: dir, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	st := s2.Stats().Store
	if st.RecoveredResults != 2 {
		t.Fatalf("boot after torn writes recovered %d results, want 2 (stats %+v)", st.RecoveredResults, st)
	}
	if st.RecoveredTraces == 0 {
		t.Fatalf("boot after torn writes recovered no trace pairs (stats %+v)", st)
	}
	if st.ResultEntries != 0 {
		t.Fatalf("torn entries adopted: %d", st.ResultEntries)
	}

	rejob, err := s2.Submit(tinyReq(64, 128))
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, rejob)
	if final.Metrics.Simulated != 2 {
		t.Fatalf("rerun after recovery: %+v, want 2 fresh simulations", final.Metrics)
	}
	if !gridsEqual(t, first, strippedGrid(t, rejob)) {
		t.Fatal("rerun after torn-write crash differs from the original grid")
	}
}

// TestAdmissionControl exercises admit() directly: reservations under the
// cap succeed, overflow sheds with a typed retryable OverloadError, an
// over-cap sweep is still admitted when the backlog is empty, and draining
// sheds everything.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, 0, 1)
	s.cfg.MaxBacklog = 4

	if err := s.admit(3); err != nil {
		t.Fatalf("admit(3) under cap 4: %v", err)
	}
	err := s.admit(2)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Backlog != 3 || oe.Draining {
		t.Fatalf("admit(2) at backlog 3 = %v, want OverloadError{Backlog: 3}", err)
	}
	if retryable, after := retryDetails(err); !retryable || after <= 0 {
		t.Fatalf("shed sweep retryable=%v after=%v, want retryable with backoff", retryable, after)
	}
	if err := s.admit(1); err != nil {
		t.Fatalf("admit(1) filling to the cap: %v", err)
	}
	s.backlog.Store(0)
	if err := s.admit(100); err != nil {
		t.Fatalf("over-cap sweep at empty backlog: %v, want admitted", err)
	}
	s.backlog.Store(0)

	s.BeginDrain()
	err = s.admit(1)
	if !errors.As(err, &oe) || !oe.Draining {
		t.Fatalf("admit while draining = %v, want draining OverloadError", err)
	}
	if s.shed.Load() != 2 {
		t.Errorf("shed counter = %d, want 2", s.shed.Load())
	}
}

// TestOverloadHTTP checks the wire form of shedding: 429 + Retry-After for
// a full backlog, 503 + Retry-After from /readyz and submit while draining,
// /healthz green throughout.
func TestOverloadHTTP(t *testing.T) {
	s := newTestServer(t, 0, 1)
	s.cfg.MaxBacklog = 2
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Pretend two points are queued; the next sweep must shed.
	s.backlog.Store(2)
	blob, _ := json.Marshal(tinyReq(64))
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	s.backlog.Store(0)

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining /readyz = %d (Retry-After %q), want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (alive, just leaving)", resp.StatusCode)
	}
}

// TestSingleflightJoinerTypedError: a leader that dies mid-flight must reach
// its joiners as a typed, retryable PointError marked Joined — the signal
// the client retry loop keys on — while the joiner's own cancellation stays
// a plain context error.
func TestSingleflightJoinerTypedError(t *testing.T) {
	var g flightGroup
	boom := errors.New("disk on fire")
	if _, owner := g.claim("k"); !owner {
		t.Fatal("first claim does not own the key")
	}
	f, _ := g.claim("k")

	joinerDone := make(chan error, 1)
	go func() {
		_, err := f.wait(context.Background())
		joinerDone <- err
	}()
	// The joiner is parked on the flight; fail the owner.
	time.Sleep(50 * time.Millisecond)
	g.settle("k", nil, boom)

	err := <-joinerDone
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("joiner error %v is not a *PointError", err)
	}
	if !pe.Joined || pe.Key != "k" || !errors.Is(err, boom) {
		t.Fatalf("joiner PointError = %+v, want Joined on key k wrapping the cause", pe)
	}
	if !pe.Retryable() {
		t.Error("leader failure not retryable for the joiner")
	}
	// Shutdown cancellation is the one non-retryable point failure.
	term := &PointError{Key: "k", Err: context.Canceled}
	if term.Retryable() {
		t.Error("daemon-shutdown cancellation marked retryable")
	}
}

// subsCount reads a job's live SSE subscriber count.
func subsCount(j *Job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.subs)
}

// TestEventsDisconnectCleanup: an SSE subscriber that vanishes mid-stream
// (closed laptop, dropped connection) must unsubscribe and release its
// handler goroutine — a daemon streaming to the void forever is a leak.
func TestEventsDisconnectCleanup(t *testing.T) {
	s := newTestServer(t, 0, 1)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A hand-built running job keeps the stream open indefinitely.
	sp, err := tinyReq(64).Space()
	if err != nil {
		t.Fatal(err)
	}
	job := newJob("sw-test-sse", tinyReq(64), sp, 1, 1)
	s.jobsMu.Lock()
	s.jobs[job.id] = job
	s.jobsMu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sweeps/"+job.id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for subsCount(job) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: subscribers = %d, want %d", what, subsCount(job), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(1, "after attach")
	cancel()
	waitFor(0, "after client disconnect")
}

// TestServerChaosRetryInvariant is the paper's contract under fire: against
// a daemon injecting read errors, torn reads and lying torn writes into
// every store and spill operation, a retrying submitter still converges —
// and the grid it converges to is bit-identical to a fault-free server's.
// Faults move work (re-simulations, retries), never answers.
func TestServerChaosRetryInvariant(t *testing.T) {
	ref := newTestServer(t, 0, 2)
	refJob, err := ref.Submit(tinyReq(64, 128))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, refJob)
	want := strippedGrid(t, refJob)

	// One worker keeps the seeded fault sequence deterministic: the roll
	// order is the (fixed) sequential operation order, so this test cannot
	// flake on scheduling.
	chaos, err := New(Config{StoreDir: t.TempDir(), Parallelism: 1,
		Faults: mustFaults(t, "seed=5;io:err:0.25;io:shortread:0.25;io.result.write:tornwrite:0.5")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chaos.Close)

	var done *Job
	attempts := 0
	for ; attempts < 100 && done == nil; attempts++ {
		job, err := chaos.Submit(tinyReq(64, 128))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		st, err := job.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			done = job
			break
		}
		// Every chaos failure must carry the retry contract.
		if !st.Retryable {
			t.Fatalf("injected failure not retryable: %s", st.Error)
		}
	}
	if done == nil {
		t.Fatalf("no successful sweep in %d attempts", attempts)
	}
	if !gridsEqual(t, want, strippedGrid(t, done)) {
		t.Fatal("chaos grid differs from the fault-free grid")
	}
	if chaos.cfg.Faults.Total() == 0 {
		t.Error("chaos run injected nothing; the test proved nothing")
	}
	// Backlog accounting survives failed sweeps: everything admitted was
	// released, so nothing is left to wedge the admission controller.
	if bl := chaos.backlog.Load(); bl != 0 {
		t.Errorf("backlog = %d after all sweeps finished, want 0", bl)
	}
}
