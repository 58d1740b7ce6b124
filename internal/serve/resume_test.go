package serve

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepIDDeterministic: equivalent requests hash to the same sweep ID,
// different grids to different ones — the whole idempotency story rests on
// this.
func TestSweepIDDeterministic(t *testing.T) {
	sp1, err := tinyReq(64, 128).Space()
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := tinyReq(64, 128).Space()
	if err != nil {
		t.Fatal(err)
	}
	if sweepID(sp1) != sweepID(sp2) {
		t.Fatalf("equivalent requests: %s vs %s", sweepID(sp1), sweepID(sp2))
	}
	sp3, err := tinyReq(64, 256).Space()
	if err != nil {
		t.Fatal(err)
	}
	if sweepID(sp1) == sweepID(sp3) {
		t.Fatalf("different grids share ID %s", sweepID(sp1))
	}
	if id := sweepID(sp1); !strings.HasPrefix(id, "sw-") || len(id) != len("sw-")+16 {
		t.Fatalf("sweep ID shape: %q", id)
	}
}

// TestSubmitIdempotent: resubmitting an identical sweep — while it runs and
// after it completes — returns the existing job, costing no admission and
// no work.
func TestSubmitIdempotent(t *testing.T) {
	s := newTestServer(t, 0, 2)
	job, err := s.Submit(tinyReq(64))
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Submit(tinyReq(64))
	if err != nil {
		t.Fatal(err)
	}
	if again != job {
		t.Fatalf("live resubmit made a new job %s", again.ID())
	}
	waitJob(t, job)
	done, err := s.Submit(tinyReq(64))
	if err != nil {
		t.Fatal(err)
	}
	if done != job {
		t.Fatalf("completed resubmit made a new job %s", done.ID())
	}
	st := s.Stats()
	if st.Sweeps != 3 || st.DedupSweeps != 2 || st.Simulations != 1 {
		t.Fatalf("sweeps=%d dedup=%d sims=%d, want 3/2/1", st.Sweeps, st.DedupSweeps, st.Simulations)
	}
}

// resumeReq is the crash tests' grid: four set counts over two workloads,
// which the scheduler splits into one shard per workload at any
// parallelism — so one shard can finish while the other is cut off.
func resumeReq() SweepRequest {
	r := tinyReq(64, 128, 256, 512)
	r.Workloads = append(r.Workloads, tinySpec2)
	return r
}

// installCrashStub replaces the shard seam so the first shard to start
// simulates and every later one hangs until its context dies — the crash
// window, which resumeReq's second shard falls into — while crashed is
// false; once the test flips crashed, every shard simulates for real.
// Restores the seam on cleanup.
func installCrashStub(t *testing.T) *atomic.Bool {
	t.Helper()
	orig := simulateShard
	crashed := &atomic.Bool{}
	var started atomic.Int64
	simulateShard = func(ctx context.Context, simulate func(context.Context) error) error {
		if !crashed.Load() && started.Add(1) > 1 {
			<-ctx.Done()
			return ctx.Err()
		}
		return orig(ctx, simulate)
	}
	t.Cleanup(func() { simulateShard = orig })
	return crashed
}

// waitDone polls a job until at least n grid points have completed (and
// therefore been journaled — the journal append precedes the done event).
func waitDone(t *testing.T, job *Job, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for job.status().Metrics.Done < n {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %+v waiting for %d done points", job.ID(), job.status().Metrics, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// crashServer shuts a server down the way the crash tests need: Close
// cancels the running sweep without journaling a terminal state — the same
// journal the daemon would leave behind under SIGKILL — and the test waits
// for the job to observe the cancellation so no goroutine still touches the
// store dir.
func crashServer(t *testing.T, s *Server, job *Job) {
	t.Helper()
	s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" {
		t.Fatalf("cut-off job state = %s, want failed", st.State)
	}
}

// TestCrashResume is the tentpole end to end, in-process and deterministic:
// a daemon dies mid-sweep after completing one workload's shard (4 of 8
// points), a second daemon over the same store dir resurrects the sweep
// from the journal, resubmits reattach by content-hashed ID, only the
// unfinished half simulates, and the final grid is bit-identical to an
// uninterrupted fault-free run's.
func TestCrashResume(t *testing.T) {
	// Reference grid first, before the simulation seam is stubbed.
	ref := newTestServer(t, 0, 2)
	refJob, err := ref.Submit(resumeReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, refJob)
	want := strippedGrid(t, refJob)

	crashed := installCrashStub(t)
	dir := t.TempDir()
	s1, err := New(Config{StoreDir: dir, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	job1, err := s1.Submit(resumeReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job1, 4)
	crashServer(t, s1, job1)
	crashed.Store(true)

	s2, err := New(Config{StoreDir: dir, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	boot := s2.Stats()
	if boot.ResumedSweeps != 1 || boot.ResumedPointsSkipped != 4 {
		t.Fatalf("boot resumed %d sweeps, %d points skipped; want 1, 4",
			boot.ResumedSweeps, boot.ResumedPointsSkipped)
	}
	job2, ok := s2.job(job1.ID())
	if !ok {
		t.Fatalf("resumed daemon does not know sweep %s", job1.ID())
	}
	// The client's resubmission after the restart reattaches to the resumed
	// job under the same content-hashed ID.
	re, err := s2.Submit(resumeReq())
	if err != nil {
		t.Fatal(err)
	}
	if re != job2 {
		t.Fatalf("post-restart resubmit made job %s, want reattach to %s", re.ID(), job2.ID())
	}
	final := waitJob(t, job2)
	if final.Epoch != 2 {
		t.Fatalf("resumed job epoch = %d, want 2 (event log was rebuilt)", final.Epoch)
	}
	// Zero duplicate simulations: the four points that landed in the store
	// before the crash come back as hits, only the remainder simulates.
	if final.Metrics.StoreHits != 4 || final.Metrics.Simulated != 4 {
		t.Fatalf("resumed metrics = %+v, want 4 store hits + 4 simulated", final.Metrics)
	}
	if got := s2.Stats(); got.Simulations != 4 {
		t.Fatalf("resumed daemon simulated %d points, want 4", got.Simulations)
	}
	if !gridsEqual(t, want, strippedGrid(t, job2)) {
		t.Fatal("resumed grid differs from the uninterrupted reference")
	}
}

// TestCrashResumeUnderJournalFaults: the same crash-resume flow with seeded
// faults injected into every io.journal.* site on both daemon lives. The
// journal is allowed to lose resumption — the second daemon may resurrect
// the sweep or see it fresh on resubmit — but the grid must still come out
// bit-identical with zero duplicate simulations, because the store, not the
// journal, is the durability authority for results.
func TestCrashResumeUnderJournalFaults(t *testing.T) {
	ref := newTestServer(t, 0, 2)
	refJob, err := ref.Submit(resumeReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, refJob)
	want := strippedGrid(t, refJob)

	crashed := installCrashStub(t)
	dir := t.TempDir()
	s1, err := New(Config{StoreDir: dir, Parallelism: 2,
		Faults: mustFaults(t, "seed=11;io.journal:err:0.4")})
	if err != nil {
		t.Fatal(err)
	}
	job1, err := s1.Submit(resumeReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job1, 4)
	crashServer(t, s1, job1)
	crashed.Store(true)
	if s1.cfg.Faults.Total() == 0 {
		t.Fatal("no journal faults injected; the test proved nothing")
	}

	s2, err := New(Config{StoreDir: dir, Parallelism: 2,
		Faults: mustFaults(t, "seed=12;io.journal:err:0.4")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	job2, ok := s2.job(job1.ID())
	if !ok {
		// The journal lost the sweep to an injected fault: the client's
		// resubmission recreates it — fresh job, same ID, same store.
		job2, err = s2.Submit(resumeReq())
		if err != nil {
			t.Fatal(err)
		}
	}
	final := waitJob(t, job2)
	if final.Metrics.StoreHits != 4 || final.Metrics.Simulated != 4 {
		t.Fatalf("metrics under journal faults = %+v, want 4 store hits + 4 simulated", final.Metrics)
	}
	if !gridsEqual(t, want, strippedGrid(t, job2)) {
		t.Fatal("grid under journal faults differs from the reference")
	}
}

// TestServerPanicContainment: a shard whose simulation panics fails its
// sweep with a typed retryable error, the daemon counts the recovery and
// keeps serving, and the retry (a same-ID resubmission at the next epoch)
// succeeds.
func TestServerPanicContainment(t *testing.T) {
	orig := simulateShard
	var primed atomic.Bool
	primed.Store(true)
	simulateShard = func(ctx context.Context, simulate func(context.Context) error) error {
		if primed.CompareAndSwap(true, false) {
			panic("injected simulation panic")
		}
		return orig(ctx, simulate)
	}
	t.Cleanup(func() { simulateShard = orig })

	s := newTestServer(t, 0, 1)
	job, err := s.Submit(tinyReq(64, 128))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !st.Retryable || !strings.Contains(st.Error, "panic") {
		t.Fatalf("panicked sweep status = %+v, want retryable failure naming the panic", st)
	}
	if got := s.Stats().PanicsRecovered; got != 1 {
		t.Fatalf("panics recovered = %d, want 1", got)
	}
	// The daemon survived: the retry replaces the failed run and completes.
	retry, err := s.Submit(tinyReq(64, 128))
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID() != job.ID() {
		t.Fatalf("retry got ID %s, want %s", retry.ID(), job.ID())
	}
	final := waitJob(t, retry)
	if final.Epoch != 2 || final.Metrics.Done != 2 {
		t.Fatalf("retry status = %+v, want epoch-2 completion", final)
	}
}

// TestPointWatchdog: a shard stuck past Config.PointDeadline fails its
// points retryable instead of pinning the semaphore slot; once unwedged, the
// retry completes and the daemon never stopped serving.
func TestPointWatchdog(t *testing.T) {
	orig := simulateShard
	var wedged atomic.Bool
	wedged.Store(true)
	simulateShard = func(ctx context.Context, simulate func(context.Context) error) error {
		if wedged.Load() {
			<-ctx.Done()
			return ctx.Err()
		}
		return orig(ctx, simulate)
	}
	t.Cleanup(func() { simulateShard = orig })

	s, err := New(Config{StoreDir: t.TempDir(), Parallelism: 1, PointDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	job, err := s.Submit(tinyReq(64))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !st.Retryable {
		t.Fatalf("wedged point status = %+v, want retryable watchdog failure", st)
	}
	wedged.Store(false)
	retry, err := s.Submit(tinyReq(64))
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, retry)
	if final.Epoch != 2 || final.Metrics.Simulated != 1 {
		t.Fatalf("post-watchdog retry = %+v, want epoch-2 fresh simulation", final)
	}
}
