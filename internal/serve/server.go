// Package serve is the sweep-as-a-service layer: a long-running HTTP/JSON
// daemon that accepts design-space sweep requests (POST /v1/sweeps) and
// runs each through explore's shard scheduler, the same code path as
// `wmx explore`. Everything shareable is shared across clients: the
// daemon's resolver answers each grid point from one content-addressed
// result + trace store (byte budget, LRU eviction), by joining another
// sweep's in-flight claim on the point's explore.KeyWorkload hash, or by
// claiming it; claimed points simulate in per-workload shards that replay
// one capture, and one trace cache means each workload executes at most
// once per (workload, packet) however many sweeps touch it. Progress
// streams per grid point over server-sent events
// (GET /v1/sweeps/{id}/events), and the warm analytics endpoints answer
// from completed grids without simulating at all.
//
// The API surface:
//
//	POST /v1/sweeps                   submit a SweepRequest -> SubmitResponse
//	GET  /v1/sweeps/{id}              JobStatus
//	GET  /v1/sweeps/{id}/events      SSE: Event per grid point, then "done"
//	GET  /v1/sweeps/{id}/result      ResultResponse (full grid)
//	GET  /v1/sweeps/{id}/candidates  []explore.Candidate
//	GET  /v1/sweeps/{id}/pareto      []explore.Candidate (the frontier)
//	GET  /v1/sweeps/{id}/marginals   []explore.Marginal
//	GET  /v1/sweeps/{id}/optimum     OptimumResponse
//	GET  /v1/stats                    ServerStats
//	GET  /healthz                     liveness
//	GET  /readyz                      readiness (503 + Retry-After while draining)
//
// The daemon is built to degrade, never corrupt: an admission controller
// sheds whole sweeps with 429 + Retry-After when the unfinished-point
// backlog would exceed its bound, per-request deadlines bound every
// non-streaming handler, failed grid points surface as typed retryable
// errors (PointError / OverloadError) that internal/serve/client backs off
// and retries on, and the store opens with a crash-recovery sweep that
// quarantines torn entries instead of serving or tripping on them. The
// internal/fault layer (Config.Faults, `wmx serve -fault-spec`) injects
// I/O and HTTP failures at every one of those seams to prove the contract:
// under any fault, completed results are bit-identical to a fault-free run.
//
// Sweeps themselves are crash-durable: IDs are content hashes of the
// normalized request (resubmission is idempotent), every acceptance and
// per-point completion is logged to a CRC-framed write-ahead journal under
// the store dir, and boot replays the journal to resurrect non-terminal
// sweeps — completed points come back as store hits, only the remainder
// simulates (see journal.go). A panicking shard is recovered into
// retryable failures of its points, and Config.PointDeadline fails
// retryable any shard stuck past its watchdog instead of pinning a
// simulation slot.
//
// `wmx serve` wraps a Server in an http.Server; internal/serve/client is
// the typed client and tools/loadgen the load harness that proves N
// overlapping sweeps cost one simulation per unique grid point.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waymemo/internal/explore"
	"waymemo/internal/fault"
	"waymemo/internal/suite"
)

// Config configures a Server.
type Config struct {
	// StoreDir roots the shared store (results + trace spills); required.
	StoreDir string
	// StoreBudget caps the store's combined byte footprint (0 =
	// unlimited); see Store.
	StoreBudget int64
	// Parallelism bounds concurrently simulating shards across ALL sweeps
	// (0 = GOMAXPROCS). Store hits and dedup joins are not counted
	// against it.
	Parallelism int
	// MaxJobs caps how many finished jobs are kept queryable (0 = 4096);
	// the oldest finished jobs are forgotten first.
	MaxJobs int
	// MaxBacklog caps the unfinished admitted grid points across all
	// running sweeps (0 = 4096, negative = unlimited). A sweep that would
	// push the backlog past the cap is shed with an OverloadError (HTTP
	// 429 + Retry-After) before any work happens — except when the backlog
	// is empty, where any sweep is admitted so grids larger than the cap
	// remain possible.
	MaxBacklog int
	// RequestTimeout bounds each non-streaming HTTP request's context
	// (0 = 60s, negative = no deadline). SSE streams and the probes are
	// exempt.
	RequestTimeout time.Duration
	// PointDeadline is the shard watchdog: a shard simulating longer than
	// this fails its unfinished points with a retryable PointError instead
	// of holding its simulation slot forever (0 = 5m, negative = no
	// watchdog).
	PointDeadline time.Duration
	// Faults, when non-nil, routes store I/O, trace spills and HTTP
	// handling through the fault-injection layer. Nil — the default — is
	// completely off: the file shims pass straight through to the os
	// package and no HTTP wrapper is installed.
	Faults *fault.Injector
}

// Server executes sweeps and serves the HTTP API. Create with New, attach
// to an http.Server (it implements http.Handler), and Close on shutdown.
type Server struct {
	cfg     Config
	store   *Store
	traces  *suite.TraceCache
	flights flightGroup

	baseCtx context.Context
	stop    context.CancelFunc
	simSem  chan struct{}
	handler http.Handler // mux + deadline middleware + fault middleware

	journal *journal

	jobsMu sync.Mutex
	jobs   map[string]*Job
	order  []string // creation order, for MaxJobs forgetting

	sweeps, dedupSweeps, requestedPoints           atomic.Int64
	points, storeHits, dedupJoins, sims            atomic.Int64
	resumedSweeps, resumedSkipped, panicsRecovered atomic.Int64

	// backlog is the admission controller's gauge: grid points admitted
	// but not yet finished, across all running sweeps. shed counts sweeps
	// rejected over it. draining flips when BeginDrain starts shutdown.
	backlog, shed atomic.Int64
	draining      atomic.Bool
}

// New opens the store (running its crash-recovery sweep first, so the
// journal replay that follows probes an already-sane store), replays the
// sweep journal, and builds a ready-to-serve Server with every
// non-terminal journaled sweep already running again.
func New(cfg Config) (*Server, error) {
	fs := fault.FS{Inj: cfg.Faults}
	store, err := OpenStoreFS(cfg.StoreDir, cfg.StoreBudget, fs)
	if err != nil {
		return nil, err
	}
	traces, err := suite.NewDirTraceCacheFS(store.TraceDir(), fs)
	if err != nil {
		return nil, err
	}
	jn, err := openJournal(cfg.StoreDir, fs)
	if err != nil {
		return nil, err
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		store:   store,
		traces:  traces,
		journal: jn,
		baseCtx: ctx,
		stop:    cancel,
		simSem:  make(chan struct{}, par),
		jobs:    map[string]*Job{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.analysisHandler(func(g *explore.Grid, m JobMetrics) any {
		return ResultResponse{Points: g.Points, Metrics: m}
	}))
	mux.HandleFunc("GET /v1/sweeps/{id}/candidates", s.analysisHandler(func(g *explore.Grid, _ JobMetrics) any {
		return g.Candidates()
	}))
	mux.HandleFunc("GET /v1/sweeps/{id}/pareto", s.analysisHandler(func(g *explore.Grid, _ JobMetrics) any {
		return explore.Pareto(g.Candidates())
	}))
	mux.HandleFunc("GET /v1/sweeps/{id}/marginals", s.analysisHandler(func(g *explore.Grid, _ JobMetrics) any {
		return g.Marginals()
	}))
	mux.HandleFunc("GET /v1/sweeps/{id}/optimum", s.analysisHandler(func(g *explore.Grid, _ JobMetrics) any {
		best, _ := explore.Optimum(g.Candidates())
		tags, sets := explore.PaperPick(g.Space.Domain)
		return OptimumResponse{Optimum: best, PaperTags: tags, PaperSets: sets}
	}))
	// Request pipeline, outermost first: fault injection (absent entirely
	// when off), then per-request deadlines, then the mux.
	s.handler = fault.Middleware(cfg.Faults, s.deadlineMiddleware(mux))
	for _, js := range jn.resumableSweeps() {
		s.resumeJob(js)
	}
	return s, nil
}

// resumeJob resurrects one non-terminal journaled sweep at boot: the job
// restarts under its original ID at the journal's bumped epoch, bypassing
// admission (the points were admitted before the crash). Points whose
// results reached the store before the crash come straight back as store
// hits, so a resumed sweep re-simulates only what it never finished. A
// request that no longer validates (a journal written by an older binary)
// is marked failed in the journal and dropped rather than failing boot.
func (s *Server) resumeJob(js *journalSweep) {
	space, err := js.Req.Space()
	if err != nil {
		s.journal.terminal(js.ID, "failed")
		return
	}
	n := space.NumPoints()
	job := newJob(js.ID, js.Req, space, n, js.Epoch)
	s.jobsMu.Lock()
	s.jobs[js.ID] = job
	s.order = append(s.order, js.ID)
	s.jobsMu.Unlock()
	s.backlog.Add(int64(n))
	s.resumedSweeps.Add(1)
	s.resumedSkipped.Add(int64(len(js.Done)))
	go s.runJob(job)
}

// deadlineMiddleware bounds every non-streaming request's context with
// Config.RequestTimeout, so a handler stuck behind a slow disk or a packed
// simulation queue returns an error instead of holding the connection
// forever. SSE streams are exempt (they are long-lived by design) and so
// are the probes (they must stay cheap and honest).
func (s *Server) deadlineMiddleware(next http.Handler) http.Handler {
	d := s.cfg.RequestTimeout
	if d == 0 {
		d = 60 * time.Second
	}
	if d < 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		if strings.HasSuffix(p, "/events") || p == "/healthz" || p == "/readyz" {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ServeHTTP dispatches through the middleware pipeline to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// BeginDrain starts shutdown from the traffic side: /readyz flips to 503 so
// orchestrators stop routing here, and Submit sheds every new sweep with a
// draining OverloadError while already-admitted sweeps run to completion.
// Call it before http.Server.Shutdown; Close then cancels whatever is left.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close cancels every running sweep and closes the journal's append
// handle. In-flight HTTP requests fail with the cancellation; callers shut
// the http.Server down first. Sweeps cut off here are NOT marked terminal
// in the journal — a daemon killed or closed mid-sweep resumes them on the
// next boot over the same store dir.
func (s *Server) Close() {
	s.stop()
	s.journal.close()
}

// Stats snapshots the daemon-wide counters.
func (s *Server) Stats() ServerStats {
	records, appendErrs := s.journal.stats()
	return ServerStats{
		Sweeps:               s.sweeps.Load(),
		DedupSweeps:          s.dedupSweeps.Load(),
		RequestedPoints:      s.requestedPoints.Load(),
		Points:               s.points.Load(),
		StoreHits:            s.storeHits.Load(),
		DedupJoins:           s.dedupJoins.Load(),
		Simulations:          s.sims.Load(),
		InFlightPoints:       s.flights.inFlight(),
		JournalRecords:       records,
		JournalAppendErrors:  appendErrs,
		ResumedSweeps:        s.resumedSweeps.Load(),
		ResumedPointsSkipped: s.resumedSkipped.Load(),
		PanicsRecovered:      s.panicsRecovered.Load(),
		BacklogPoints:        s.backlog.Load(),
		ShedSweeps:           s.shed.Load(),
		Faults:               s.cfg.Faults.Counts(),
		Store:                s.store.Stats(),
		Traces:               s.traces.Stats(),
	}
}

// admit is the admission controller: it reserves n grid points of backlog
// or sheds the sweep with an OverloadError. The cap applies to the sum of
// unfinished points across every running sweep — the quantity that actually
// measures queued work, since sweeps are just bags of points behind one
// simulation semaphore. A sweep larger than the whole cap is still admitted
// when the backlog is empty (otherwise big grids could never run); anything
// else that would overflow is shed before any work starts, so a stampede
// degrades to fast 429s instead of an unbounded queue.
func (s *Server) admit(n int) error {
	if s.draining.Load() {
		s.shed.Add(1)
		return &OverloadError{Draining: true, RetryAfter: time.Second}
	}
	max := int64(s.cfg.MaxBacklog)
	if max == 0 {
		max = 4096
	}
	for {
		cur := s.backlog.Load()
		if max > 0 && cur > 0 && cur+int64(n) > max {
			s.shed.Add(1)
			return &OverloadError{Backlog: cur, RetryAfter: time.Second}
		}
		if s.backlog.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// sweepID derives the deterministic sweep ID from the normalized space:
// the content hash over the ordered grid-point keys (the same
// explore.KeyWorkload machinery that keys the result store), so two
// clients — or the same client before and after a daemon restart —
// submitting equivalent sweeps name the same job.
func sweepID(space explore.Space) string {
	h := sha256.New()
	io.WriteString(h, "sweep-v1\n")
	for _, key := range space.PointKeys() {
		io.WriteString(h, key+"\n")
	}
	return "sw-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Submit validates, admits and starts a sweep without going through HTTP —
// the handler's core, also convenient for in-process embedding and tests.
// An *OverloadError means the sweep was shed (or the daemon is draining)
// and a retry after backoff is expected to succeed.
//
// Submission is idempotent: the sweep's ID is the content hash of its
// normalized request, and resubmitting while an identical sweep is running
// or completed returns that job — no admission, no new work. Only a FAILED
// previous run is replaced: the new job reuses the ID at the next epoch
// and re-executes (content-keyed points redo only what never stored).
func (s *Server) Submit(req SweepRequest) (*Job, error) {
	space, err := req.Space()
	if err != nil {
		return nil, err
	}
	n := space.NumPoints()
	id := sweepID(space)

	if j, ok := s.absorb(id, n); ok {
		return j, nil
	}
	if err := s.admit(n); err != nil {
		return nil, err
	}
	s.jobsMu.Lock()
	if j, ok := s.jobs[id]; ok && j.status().State != "failed" {
		// Lost the creation race to a concurrent identical submit: return
		// the winner and hand back the backlog we reserved.
		s.jobsMu.Unlock()
		s.backlog.Add(-int64(n))
		s.noteSubmission(n, true)
		return j, nil
	}
	epoch := 1
	if old, ok := s.jobs[id]; ok {
		epoch = old.epoch + 1 // replacing a failed run under the same ID
	} else {
		s.order = append(s.order, id)
	}
	job := newJob(id, req, space, n, epoch)
	s.jobs[id] = job
	s.forgetOldLocked()
	s.jobsMu.Unlock()
	s.noteSubmission(n, false)
	s.journal.submitted(id, epoch, req)
	go s.runJob(job)
	return job, nil
}

// absorb resolves an idempotent resubmission: if a live or completed job
// already carries id, count the submission and return it. Failed jobs do
// not absorb — the caller replaces them.
func (s *Server) absorb(id string, n int) (*Job, bool) {
	s.jobsMu.Lock()
	j, ok := s.jobs[id]
	s.jobsMu.Unlock()
	if !ok || j.status().State == "failed" {
		return nil, false
	}
	s.noteSubmission(n, true)
	return j, true
}

// noteSubmission updates the demand-side counters for one accepted
// submission: every accept counts as a sweep and contributes its grid size
// to RequestedPoints, whether it started a job or joined an existing one.
func (s *Server) noteSubmission(n int, dedup bool) {
	s.sweeps.Add(1)
	s.requestedPoints.Add(int64(n))
	if dedup {
		s.dedupSweeps.Add(1)
	}
}

// forgetOldLocked drops the oldest finished jobs beyond MaxJobs, so a
// long-lived daemon's job table does not grow without bound. Running jobs
// are never dropped. Callers hold jobsMu.
func (s *Server) forgetOldLocked() {
	max := s.cfg.MaxJobs
	if max <= 0 {
		max = 4096
	}
	for i := 0; len(s.jobs) > max && i < len(s.order); {
		id := s.order[i]
		j, ok := s.jobs[id]
		if ok && j.status().State == "running" {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}

// job looks a sweep up by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one sweep through explore's shard scheduler: every grid
// point is served from the store, by joining another sweep's claim on it,
// or by a shard this sweep simulates — whichever comes first — and lands at
// its deterministic grid index.
func (s *Server) runJob(job *Job) {
	// Submit reserved the grid's size of backlog; pointEvent releases it
	// point by point as they finish so admission tracks live queue depth,
	// and an aborted sweep releases what it left over on the way out.
	defer func() { s.backlog.Add(-int64(job.space.NumPoints() - job.status().Metrics.Done)) }()

	grid, err := explore.Scheduler{
		Cache:       resolver{s},
		Traces:      s.traces,
		Parallelism: len(s.simSem),
		Progress:    func(p explore.Progress) { s.pointEvent(job, p) },
		Shard:       s.runShard,
	}.Run(s.baseCtx, job.space)
	if err != nil {
		job.finish(nil, err)
		// The daemon's own shutdown (baseCtx cancelled) is the one failure
		// that must NOT reach the journal as terminal: those sweeps are
		// exactly what the next boot should resume. Every other failure is
		// final for this epoch — a resubmit replaces it at the next one.
		if !errors.Is(err, context.Canceled) {
			s.journal.terminal(job.id, "failed")
		}
		return
	}
	// Sweep epilogue: apply the store budget, and if trace spills were
	// evicted, drop the in-memory captures too so resident memory tracks
	// the budget rather than every workload ever swept.
	if _, tr := s.store.Enforce(); tr > 0 {
		s.traces.Flush()
	}
	job.finish(grid, nil)
	s.journal.terminal(job.id, "done")
}

// pointEvent is a sweep's progress callback: it counts the point, and a
// finished one releases its backlog and is journaled (its result is in the
// store by now) before its SSE event names the tier that served it.
func (s *Server) pointEvent(job *Job, p explore.Progress) {
	ev := Event{Index: p.Index, Total: p.Total, Workload: p.Workload,
		Sets: p.Geometry.Sets, Ways: p.Geometry.Ways, Line: p.Geometry.LineBytes,
		Status: "start"}
	if !p.Done {
		s.points.Add(1)
		job.emit(ev)
		return
	}
	switch {
	case p.Joined:
		s.dedupJoins.Add(1)
		ev.Source = SourceDedup
	case p.Cached:
		s.storeHits.Add(1)
		ev.Source = SourceStore
	default:
		s.sims.Add(1)
		ev.Source = SourceSimulated
	}
	s.backlog.Add(-1)
	s.journal.point(job.id, p.Index)
	ev.Status = "done"
	job.emit(ev)
}

// resolver is the daemon's explore.Cache. The order of preference for a
// point: the shared store (warm), joining another sweep's claim on the key
// (singleflight), then claiming it — which re-probes the store first, since
// a flight that settled between the probe and the claim has stored its
// result.
type resolver struct{ s *Server }

func (r resolver) Resolve(key string, valid func(*explore.PointResult) bool) (*explore.PointResult, func(context.Context) (*explore.PointResult, error)) {
	if pr, ok := r.s.store.Get(key); ok && valid(pr) {
		return pr, nil
	}
	f, owner := r.s.flights.claim(key)
	if !owner {
		return nil, f.wait
	}
	if pr, ok := r.s.store.Get(key); ok && valid(pr) {
		r.s.flights.settle(key, pr, nil)
		return pr, nil
	}
	return nil, nil
}

// Publish stores a simulated point and releases the key's waiters with the
// result, or with the failure: the store write's or the one that stopped
// the point. Every point failure surfaces typed, so retryability rides
// along to the job status and the HTTP layer.
func (r resolver) Publish(key string, pr *explore.PointResult, err error) error {
	if err == nil {
		err = r.s.store.Put(key, pr)
	}
	r.s.flights.settle(key, pr, err)
	if err != nil {
		return &PointError{Key: key, Err: err}
	}
	return nil
}

// simulateShard is the shard hook's call into the scheduler's simulation,
// behind a seam the crash, panic and watchdog tests stub.
var simulateShard = func(ctx context.Context, simulate func(context.Context) error) error {
	return simulate(ctx)
}

// runShard is the daemon's shard hook. The semaphore bounds concurrent
// shards daemon-wide; store hits and joins never queue on it. The shard
// simulates under the server's lifetime context, not the sweep's, since
// other sweeps may be waiting on its points. Config.PointDeadline bounds
// it, so a wedged shard fails retryable rather than pinning its slot, and
// a panic is recovered into a failure of the shard's points rather than
// taking down a daemon serving every other client.
func (s *Server) runShard(ctx context.Context, simulate func(context.Context) error) (err error) {
	select {
	case s.simSem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.simSem }()
	d := s.cfg.PointDeadline
	if d == 0 {
		d = 5 * time.Minute
	}
	var simCtx context.Context
	var cancel context.CancelFunc
	if d > 0 {
		simCtx, cancel = context.WithTimeout(s.baseCtx, d)
	} else {
		simCtx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	defer func() {
		if v := recover(); v != nil {
			s.panicsRecovered.Add(1)
			err = fmt.Errorf("serve: simulation panic: %v", v)
		}
	}()
	return simulateShard(simCtx, simulate)
}

// ---- HTTP handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		var oe *OverloadError
		if errors.As(err, &oe) {
			// Load shedding is not the client's fault and not permanent:
			// 429 (or 503 while draining) plus Retry-After says exactly
			// that, and internal/serve/client honors it.
			w.Header().Set("Retry-After", retryAfterSeconds(oe.RetryAfter))
			code := http.StatusTooManyRequests
			if oe.Draining {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: job.id, Points: job.metrics.Points})
}

// retryAfterSeconds renders a backoff hint as a Retry-After header value
// (whole seconds, minimum 1 — the header has no finer grain).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// handleReady is the readiness probe: "ready" while accepting sweeps, 503 +
// Retry-After once draining for shutdown. Liveness (/healthz) stays green
// through a drain — the process is healthy, just leaving.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// requestedJob looks up the sweep the request names, answering 404 itself
// when there is none.
func (s *Server) requestedJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
	}
	return job, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.requestedJob(w, r); ok {
		writeJSON(w, http.StatusOK, job.status())
	}
}

// analysisHandler builds the result and warm-analytics handlers: they
// answer purely from the completed grid — zero simulations by
// construction.
func (s *Server) analysisHandler(analyze func(*explore.Grid, JobMetrics) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.requestedJob(w, r)
		if !ok {
			return
		}
		grid, metrics, done := job.result()
		if !done {
			writeError(w, http.StatusConflict, "sweep %s is %s", job.id, job.status().State)
			return
		}
		writeJSON(w, http.StatusOK, analyze(grid, metrics))
	}
}

// handleEvents streams the job's progress as server-sent events: the full
// event log from the start (late subscribers miss nothing), then live
// events as grid points finish, then one terminal "done" event carrying
// the final JobStatus.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.requestedJob(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancel := job.subscribe()
	defer cancel()
	next := 0
	for {
		evs, state := job.eventsFrom(next)
		next += len(evs)
		for _, ev := range evs {
			blob, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: point\ndata: %s\n\n", blob)
		}
		if state != "running" {
			blob, _ := json.Marshal(job.status())
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", blob)
			flusher.Flush()
			return
		}
		flusher.Flush()
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		case <-time.After(30 * time.Second):
			// Heartbeat comment keeps idle proxies from timing the
			// stream out.
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		}
	}
}
