// benchrec records the repository's headline wall-clock timings into a
// BENCH_<n>.json file, starting the performance trajectory the roadmap asks
// for: each perf-focused PR runs it once and commits the result, so
// regressions and wins are visible across the PR sequence.
//
// It measures, on the current machine:
//
//   - suite_live_ms: a full seven-benchmark suite pass, every technique
//     attached, live execution (the cost of regenerating Figures 4-8);
//   - suite_replay_batched_ms: the same pass replayed from a warm trace
//     cache on the batched fan-out engine — one pass per workload feeding
//     all eight techniques — plus
//     fanout_sinks_per_pass (fan-out width) and fanout_events_per_sec
//     (per-sink event deliveries over the batched passes' wall time).
//     Both suite timings are the median of five passes, live and replay
//     alternated, with their spread (slowest minus fastest pass) in
//     suite_live_spread_ms and suite_replay_batched_spread_ms: one pass
//     cannot tell a regression from a noisy neighbour;
//   - explore_live_ms / explore_shared_ms: a cold multi-geometry
//     design-space sweep (24 geometries × 2 workloads) with the
//     execute-once / replay-many engine off and on, each the median of
//     five passes, live and shared alternated, with their spreads in
//     explore_live_spread_ms and explore_shared_spread_ms;
//   - explore_speedup: live / shared, the engine's headline win;
//   - serve_dedup_rate / serve_warm_query_ms: the service layer under the
//     standard load harness (internal/serve/load) against an in-process
//     daemon — 64 overlapping clients, two variants sharing a grid point;
//     the dedup rate counts points served without a simulation;
//   - trace_columns: the WMTRACE3 compressed-column footprint over the
//     paper workloads' captures — encoded bytes per event against the
//     fixed-record size of the same events, the in-memory decoded event
//     size, and the resulting compression_ratio;
//   - scaling_matrix: the warm batched fan-out replay and the cold shared
//     explore sweep repeated at GOMAXPROCS ∈ {1, 2, 4, NumCPU} (clamped to
//     the machine; -scale-procs overrides), recording each point's
//     aggregate fanout_events_per_sec and its speedup-per-core, plus
//     scaling_replay_ratio — the best ≥2-core replay rate over the 1-core
//     rate. On a single-core machine the matrix degenerates to its 1-proc
//     point: the run prints a loud note, records single_core: true, and
//     omits the ratio;
//   - serve_chaos: the same service under seeded fault injection (I/O
//     errors, short reads, latency spikes, connection drops) with a
//     deliberately tiny admission cap, driven by retrying clients —
//     recording chaos_success_rate, shed_rate and faults_injected. These
//     are informational, never gated (they are stochastic by construction);
//     the phase's hard invariant — every completed grid bit-identical
//     across clients — is asserted in-line and fails the run on violation.
//
// Usage:
//
//	go run ./tools/benchrec [-o BENCH_8.json] [-j N]
//	go run ./tools/benchrec -o /tmp/bench.json -compare BENCH_7.json -tolerance 20%
//	go run ./tools/benchrec -scale-procs 1,2 -min-scaling 1.15
//
// With -compare, the run additionally gates against a committed baseline:
// the machine-portable ratio metrics — the suite replay rate (live time
// over batched replay time), the explore trace-sharing speedup, the serve dedup rate, the trace
// compression ratio (which must also clear an absolute 2.0x floor) and the
// multi-core scaling_replay_ratio — must not fall more than -tolerance
// below the baseline's, or the process exits nonzero. Metrics a baseline
// predates (BENCH_3 has no batched replay; BENCH_6 no scaling matrix) are
// skipped, as are scaling ratios on single-core machines, so the gate works
// against any committed BENCH_<n>.json. -min-scaling sets an absolute floor
// for scaling_replay_ratio independent of any baseline — what CI's
// multi-core runners use, since a committed single-core baseline has no
// ratio to compare against. The absolute millisecond timings are never
// gated (they track the machine, not the code); the ratios cancel machine
// speed out, which is what lets CI compare its run against a number
// recorded elsewhere.
//
// Two of the gated ratios have the live path in the numerator:
// suite-replay-batched-rate is suite_live_ms / suite_replay_batched_ms and
// explore-speedup is explore_live_ms / explore_shared_ms. They measure what
// the trace engine saves over live simulation, so they fall whenever live
// simulation itself gets faster, even if the replay side did not move: a
// change that speeds up live delivery by some factor lowers both ratios by
// about that factor. Before calling a drop in either a regression, read the
// four timings behind it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"waymemo/internal/explore"
	"waymemo/internal/fault"
	"waymemo/internal/serve"
	"waymemo/internal/serve/client"
	"waymemo/internal/serve/load"
	"waymemo/internal/suite"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// record is the BENCH_<n>.json schema.
type record struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Parallel   int     `json:"parallelism"`
	SuiteLive  float64 `json:"suite_live_ms"`
	// SuiteReplBatched times the warm suite pass on the batched fan-out
	// engine; SinksPerPass and EventsPerSec describe that pass's fan-out
	// shape and delivery throughput (absent from pre-batching baselines).
	SuiteReplBatched float64 `json:"suite_replay_batched_ms,omitempty"`
	// The spreads are the slowest minus the fastest of the suitePasses
	// passes whose median SuiteLive and SuiteReplBatched are (absent from
	// single-pass baselines).
	SuiteLiveSpread float64 `json:"suite_live_spread_ms,omitempty"`
	SuiteReplSpread float64 `json:"suite_replay_batched_spread_ms,omitempty"`
	SinksPerPass    float64 `json:"fanout_sinks_per_pass,omitempty"`
	EventsPerSec    float64 `json:"fanout_events_per_sec,omitempty"`
	Explore         struct {
		Geometries int     `json:"geometries"`
		Workloads  int     `json:"workloads"`
		Points     int     `json:"points"`
		LiveMS     float64 `json:"explore_live_ms"`
		SharedMS   float64 `json:"explore_shared_ms"`
		Speedup    float64 `json:"explore_speedup"`
		// The spreads of the suitePasses passes whose medians LiveMS and
		// SharedMS are (absent from single-pass baselines).
		LiveSpread   float64 `json:"explore_live_spread_ms,omitempty"`
		SharedSpread float64 `json:"explore_shared_spread_ms,omitempty"`
	} `json:"explore_sweep_cold"`
	// Serve is the service layer's load figure (nil in pre-serve
	// baselines): the standard load harness against an in-process daemon.
	Serve *serveRecord `json:"serve_load,omitempty"`
	// Chaos is the fault-injection load figure (nil in pre-fault
	// baselines). Its rates are stochastic and informational — the compare
	// gate never reads them; correctness under faults is asserted by the
	// phase itself.
	Chaos *chaosRecord `json:"serve_chaos,omitempty"`
	// TraceColumns is the WMTRACE3 compressed-column footprint over the
	// paper workloads' captures (nil in pre-column baselines).
	TraceColumns *traceColumnsRecord `json:"trace_columns,omitempty"`
	// SingleCore is true when the machine cannot produce a multi-core
	// scaling point, so ScalingRatio is absent and downstream gates must
	// rely on -min-scaling runs on wider machines.
	SingleCore bool `json:"single_core,omitempty"`
	// Scaling is the GOMAXPROCS matrix; ScalingRatio the best ≥2-proc
	// batched replay rate over the 1-proc rate (0 when single-core).
	Scaling      []scalePoint `json:"scaling_matrix,omitempty"`
	ScalingRatio float64      `json:"scaling_replay_ratio,omitempty"`
}

// scalePoint is one GOMAXPROCS point of the scaling matrix: the warm
// batched fan-out replay and the cold shared explore sweep re-run with both
// the scheduler's processor count and the runners' -j pinned to Procs.
type scalePoint struct {
	Procs int `json:"procs"`
	// ReplayBatchedMS and EventsPerSec describe the warm batched suite
	// replay at this width: wall time, and per-sink event deliveries over
	// that time (the aggregate fan-out throughput the point achieves).
	ReplayBatchedMS float64 `json:"suite_replay_batched_ms"`
	EventsPerSec    float64 `json:"fanout_events_per_sec"`
	// ExploreSharedMS is a cold shared-trace explore sweep at this width.
	ExploreSharedMS float64 `json:"explore_shared_ms"`
	// SpeedupPerCore is (EventsPerSec / 1-proc EventsPerSec) / Procs — 1.0
	// means perfect linear scaling, the curve's droop is the contention
	// cost.
	SpeedupPerCore float64 `json:"speedup_per_core"`
}

// traceColumnsRecord sizes the same captures three ways: the paper
// workloads' full event streams as fixed-size records (the uncompressed
// WMTRACE1 layout: an 8-byte magic, 19 bytes per fetch and 15 per data
// event), as WMTRACE3 delta/varint columns, and as decoded in-memory
// events. The compression ratio is machine-portable (pure function of the
// workloads' address streams), so it is gated.
type traceColumnsRecord struct {
	Events          int     `json:"events"`
	V1BytesPerEvent float64 `json:"wmtrace1_bytes_per_event"`
	// V2BytesPerEvent is the spill size in the current column format;
	// its JSON name predates WMTRACE3 and is kept so records compare
	// with BENCH_3–8.json.
	V2BytesPerEvent float64 `json:"wmtrace2_bytes_per_event"`
	// DecodedBytesPerEvent prices the replay-time representation the
	// columns decode into, averaged over the fetch/data mix.
	DecodedBytesPerEvent float64 `json:"decoded_bytes_per_event"`
	// CompressionRatio is fixed-record bytes over WMTRACE3 bytes.
	CompressionRatio float64 `json:"compression_ratio"`
}

// serveRecord captures the serve-load metrics: the dedup rate is a
// machine-portable ratio (it depends only on the variant overlap and the
// dedup machinery, never on machine speed), so it is gated; the warm query
// latency is informational.
type serveRecord struct {
	Clients      int     `json:"clients"`
	Points       int     `json:"points"`
	UniquePoints int     `json:"unique_points"`
	Simulations  int64   `json:"simulations"`
	DedupRate    float64 `json:"serve_dedup_rate"`
	WarmQueryMS  float64 `json:"serve_warm_query_ms"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// chaosRecord captures the chaos phase: retrying clients against a daemon
// injecting seeded faults behind a tiny admission cap. Completed grids were
// verified bit-identical across clients before this record was written.
type chaosRecord struct {
	FaultSpec   string  `json:"fault_spec"`
	Clients     int     `json:"clients"`
	Succeeded   int     `json:"succeeded"`
	SuccessRate float64 `json:"chaos_success_rate"`
	ShedSweeps  int64   `json:"shed_sweeps"`
	ShedRate    float64 `json:"shed_rate"`
	Faults      int64   `json:"faults_injected"`
	Verified    int     `json:"verified_clients"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// serveDedup is the gateable serve ratio, 0 when the baseline predates the
// service layer.
func (r *record) serveDedup() float64 {
	if r.Serve == nil {
		return 0
	}
	return r.Serve.DedupRate
}

// compressionRatio is the gateable trace-column ratio, 0 when the baseline
// predates compressed columns.
func (r *record) compressionRatio() float64 {
	if r.TraceColumns == nil {
		return 0
	}
	return r.TraceColumns.CompressionRatio
}

// scaleProcs resolves the matrix widths: the -scale-procs list, or the
// default {1, 2, 4, NumCPU}, deduplicated, sorted and clamped to the
// machine. An explicit list whose every entry exceeds the machine yields an
// empty matrix (the caller notes the skip).
func scaleProcs(list string) ([]int, error) {
	cpus := runtime.NumCPU()
	var raw []int
	if strings.TrimSpace(list) != "" {
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				return nil, fmt.Errorf("bad -scale-procs entry %q", f)
			}
			raw = append(raw, v)
		}
	} else {
		raw = []int{1, 2, 4, cpus}
	}
	seen := map[int]bool{}
	var procs []int
	for _, v := range raw {
		if seen[v] {
			continue
		}
		seen[v] = true
		if v > cpus {
			fmt.Fprintf(os.Stderr, "benchrec: dropping scaling point %d procs (machine has %d)\n", v, cpus)
			continue
		}
		procs = append(procs, v)
	}
	sort.Ints(procs)
	return procs, nil
}

// measureTraceColumns sizes every paper workload's capture as fixed-size
// records and as a WMTRACE3 spill, against the decoded in-memory events they
// replay as. The captures are already warm in tc, so this is pure
// re-serialization.
func measureTraceColumns(ctx context.Context, tc *suite.TraceCache) (*traceColumnsRecord, error) {
	var events int
	var v1b, v2b, decoded int64
	for _, w := range workloads.All() {
		c, err := tc.Capture(ctx, w, 0)
		if err != nil {
			return nil, err
		}
		n2, err := c.Buf.WriteTo(io.Discard)
		if err != nil {
			return nil, err
		}
		nf, nd := c.Buf.NumFetches(), c.Buf.NumDatas()
		events += nf + nd
		v1b += 8 + 19*int64(nf) + 15*int64(nd)
		v2b += n2
		decoded += int64(nf)*int64(unsafe.Sizeof(trace.FetchEvent{})) +
			int64(nd)*int64(unsafe.Sizeof(trace.DataEvent{}))
	}
	if events == 0 || v2b == 0 {
		return nil, fmt.Errorf("trace columns: empty captures")
	}
	return &traceColumnsRecord{
		Events:               events,
		V1BytesPerEvent:      float64(v1b) / float64(events),
		V2BytesPerEvent:      float64(v2b) / float64(events),
		DecodedBytesPerEvent: float64(decoded) / float64(events),
		CompressionRatio:     float64(v1b) / float64(v2b),
	}, nil
}

func timeIt(name string, f func() error) float64 {
	fmt.Fprintf(os.Stderr, "benchrec: %s...", name)
	t0 := time.Now()
	if err := f(); err != nil {
		fmt.Fprintf(os.Stderr, "\nbenchrec: %s: %v\n", name, err)
		os.Exit(1)
	}
	d := time.Since(t0)
	fmt.Fprintf(os.Stderr, " %.0fms\n", d.Seconds()*1000)
	return d.Seconds() * 1000
}

// suitePasses is how many alternated passes the suite and explore
// timings take their medians over.
const suitePasses = 5

// medianSpread returns the median of ms and its spread, the largest minus
// the smallest value.
func medianSpread(ms []float64) (median, spread float64) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return s[len(s)/2], s[len(s)-1] - s[0]
}

// batchedReplayRate is the batched fan-out engine's win: live suite time
// over warm batched replay time (0 for baselines that predate batching,
// which the compare gate skips).
func (r *record) batchedReplayRate() float64 {
	if r.SuiteReplBatched == 0 {
		return 0
	}
	return r.SuiteLive / r.SuiteReplBatched
}

// parseTolerance accepts "20%" or "0.2".
func parseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad tolerance %q", s)
	}
	if pct {
		v /= 100
	}
	if v < 0 || v >= 1 {
		return 0, fmt.Errorf("tolerance %q outside [0%%, 100%%)", s)
	}
	return v, nil
}

// compareBaseline gates the current ratio metrics against a baseline file.
// It returns an error listing every regressed metric.
func compareBaseline(cur *record, baselinePath string, tol float64) error {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base record
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	var regressions []string
	check := func(name string, got, want float64) {
		// Skip metrics absent from an older baseline schema; the negated
		// form also catches the NaN a missing-field 0/0 ratio produces.
		if !(want > 0) {
			return
		}
		floor := want * (1 - tol)
		ok := "ok"
		if got < floor {
			ok = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s %.2fx below floor %.2fx (baseline %.2fx - %.0f%%)", name, got, floor, want, tol*100))
		}
		fmt.Fprintf(os.Stderr, "benchrec: compare %-22s %6.2fx vs baseline %6.2fx (floor %.2fx) %s\n",
			name, got, want, floor, ok)
	}
	check("suite-replay-batched-rate", cur.batchedReplayRate(), base.batchedReplayRate())
	check("explore-speedup", cur.Explore.Speedup, base.Explore.Speedup)
	check("serve-dedup-rate", cur.serveDedup(), base.serveDedup())
	check("trace-compression-ratio", cur.compressionRatio(), base.compressionRatio())
	// The compression ratio also clears an absolute floor: the columns must
	// at least halve the paper workloads' spill bytes, whatever any baseline
	// says.
	if cr := cur.compressionRatio(); cr > 0 && cr < 2.0 {
		regressions = append(regressions,
			fmt.Sprintf("trace-compression-ratio %.2fx below the absolute 2.00x floor", cr))
	}
	// Skipped (both sides 0) when either run is single-core: a 1-proc
	// matrix has no multi-core rate to form the ratio from.
	check("scaling-replay-ratio", cur.ScalingRatio, base.ScalingRatio)
	if regressions != nil {
		return fmt.Errorf("ratio regressions vs %s: %s", baselinePath, strings.Join(regressions, "; "))
	}
	return nil
}

func main() {
	out := flag.String("o", "BENCH_8.json", "output file")
	par := flag.Int("j", 0, "parallelism passed to the runners (0 = GOMAXPROCS)")
	compare := flag.String("compare", "", "baseline BENCH_<n>.json `file`; exit nonzero if a ratio metric regresses beyond -tolerance")
	tolerance := flag.String("tolerance", "20%", "allowed ratio-metric regression for -compare (\"20%\" or \"0.2\")")
	scaleList := flag.String("scale-procs", "", "comma-separated GOMAXPROCS `widths` for the scaling matrix (default 1,2,4,NumCPU, clamped to the machine)")
	minScaling := flag.Float64("min-scaling", 0, "absolute floor for scaling_replay_ratio; exit nonzero below it (requires a multi-core matrix)")
	flag.Parse()
	tol, err := parseTolerance(*tolerance)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(2)
	}
	procs, err := scaleProcs(*scaleList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(2)
	}
	ctx := context.Background()

	var r record
	r.Date = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Parallel = *par

	// Warm the per-process assembly/predecode memos first so every mode
	// below pays identical build costs and the timings isolate simulation.
	for _, w := range workloads.All() {
		if _, err := w.Build(); err != nil {
			fmt.Fprintln(os.Stderr, "benchrec:", err)
			os.Exit(1)
		}
	}

	tc := suite.NewTraceCache()
	if _, err := suite.Run(ctx, suite.WithParallelism(*par), suite.WithTraceCache(tc)); err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	before := tc.Stats()
	var live, replay []float64
	var replayTotal float64
	for i := range suitePasses {
		live = append(live, timeIt(fmt.Sprintf("suite live (pass %d/%d)", i+1, suitePasses), func() error {
			_, err := suite.Run(ctx, suite.WithParallelism(*par))
			return err
		}))
		replay = append(replay, timeIt(fmt.Sprintf("suite replay batched (warm, pass %d/%d)", i+1, suitePasses), func() error {
			_, err := suite.Run(ctx, suite.WithParallelism(*par), suite.WithTraceCache(tc))
			return err
		}))
		replayTotal += replay[i]
	}
	r.SuiteLive, r.SuiteLiveSpread = medianSpread(live)
	r.SuiteReplBatched, r.SuiteReplSpread = medianSpread(replay)
	// Fan-out shape and delivery throughput of the batched passes alone.
	after := tc.Stats()
	if passes := after.FanOutPasses - before.FanOutPasses; passes > 0 {
		r.SinksPerPass = float64(after.FanOutSinks-before.FanOutSinks) / float64(passes)
		r.EventsPerSec = float64(after.FanOutDeliveries-before.FanOutDeliveries) /
			(replayTotal / 1000)
	}

	// The same sweep bench_test.go times, so `go test -bench` and the
	// committed numbers agree on what they measure.
	s := explore.EngineBenchSpace()
	r.Explore.Geometries = len(s.Geometries())
	r.Explore.Workloads = len(s.Workloads)
	r.Explore.Points = s.NumPoints()
	var exLive, exShared []float64
	for i := range suitePasses {
		exLive = append(exLive, timeIt(fmt.Sprintf("explore sweep live (pass %d/%d)", i+1, suitePasses), func() error {
			_, err := explore.Run(ctx, s, explore.WithParallelism(*par),
				explore.WithTraceSharing(false))
			return err
		}))
		exShared = append(exShared, timeIt(fmt.Sprintf("explore sweep shared (pass %d/%d)", i+1, suitePasses), func() error {
			_, err := explore.Run(ctx, s, explore.WithParallelism(*par))
			return err
		}))
	}
	r.Explore.LiveMS, r.Explore.LiveSpread = medianSpread(exLive)
	r.Explore.SharedMS, r.Explore.SharedSpread = medianSpread(exShared)
	r.Explore.Speedup = r.Explore.LiveMS / r.Explore.SharedMS

	// Trace columns: both spill encodings of the already-warm captures.
	r.TraceColumns, err = measureTraceColumns(ctx, tc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchrec: trace columns: %.1f B/event v1, %.1f B/event v2 (%.2fx), %.0f B/event decoded\n",
		r.TraceColumns.V1BytesPerEvent, r.TraceColumns.V2BytesPerEvent,
		r.TraceColumns.CompressionRatio, r.TraceColumns.DecodedBytesPerEvent)

	// Scaling matrix: the warm batched replay and a cold shared sweep with
	// the scheduler pinned at each width. GOMAXPROCS is restored afterwards
	// so the serve phase below runs at the machine default.
	prevProcs := runtime.GOMAXPROCS(0)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		pt := scalePoint{Procs: p}
		before := tc.Stats()
		pt.ReplayBatchedMS = timeIt(fmt.Sprintf("suite replay batched (warm, %d procs)", p), func() error {
			_, err := suite.Run(ctx, suite.WithParallelism(p), suite.WithTraceCache(tc))
			return err
		})
		after := tc.Stats()
		pt.EventsPerSec = float64(after.FanOutDeliveries-before.FanOutDeliveries) /
			(pt.ReplayBatchedMS / 1000)
		pt.ExploreSharedMS = timeIt(fmt.Sprintf("explore sweep shared (%d procs)", p), func() error {
			_, err := explore.Run(ctx, s, explore.WithParallelism(p))
			return err
		})
		r.Scaling = append(r.Scaling, pt)
	}
	runtime.GOMAXPROCS(prevProcs)
	var oneCoreEPS float64
	for _, pt := range r.Scaling {
		if pt.Procs == 1 {
			oneCoreEPS = pt.EventsPerSec
		}
	}
	if oneCoreEPS > 0 {
		for i := range r.Scaling {
			r.Scaling[i].SpeedupPerCore = (r.Scaling[i].EventsPerSec / oneCoreEPS) /
				float64(r.Scaling[i].Procs)
			if r.Scaling[i].Procs >= 2 {
				if ratio := r.Scaling[i].EventsPerSec / oneCoreEPS; ratio > r.ScalingRatio {
					r.ScalingRatio = ratio
				}
			}
		}
	}
	if r.ScalingRatio == 0 {
		r.SingleCore = true
		fmt.Fprintln(os.Stderr, "benchrec: ======================================================================")
		fmt.Fprintln(os.Stderr, "benchrec: NOTE: no multi-core scaling point ran (single-core machine or matrix")
		fmt.Fprintln(os.Stderr, "benchrec: skipped) — recording single_core: true and omitting")
		fmt.Fprintln(os.Stderr, "benchrec: scaling_replay_ratio; gate scaling with -min-scaling on a wider box.")
		fmt.Fprintln(os.Stderr, "benchrec: ======================================================================")
	}

	// The service layer under the standard load harness: an in-process
	// daemon, 64 overlapping clients cycling two variants that share a grid
	// point. The dedup rate is fully determined by the variant overlap on a
	// cold store (1 - unique/requested), which is what makes it gateable.
	storeDir, err := os.MkdirTemp("", "benchrec-serve-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(storeDir)
	srv, err := serve.New(serve.Config{StoreDir: storeDir, Parallelism: *par})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	ts := httptest.NewServer(srv)
	variants := []serve.SweepRequest{
		{Sets: []int{64, 128}, TagEntries: []int{1}, SetEntries: []int{4},
			Workloads: []string{"synth:hotloop,fp=1KiB,n=8192"}},
		{Sets: []int{64, 256}, TagEntries: []int{1}, SetEntries: []int{4},
			Workloads: []string{"synth:hotloop,fp=1KiB,n=8192"}},
	}
	var rep *load.Report
	timeIt("serve load (64 clients)", func() error {
		var err error
		rep, err = load.Run(ctx, client.New(ts.URL), load.Options{Clients: 64, Variants: variants})
		return err
	})
	ts.Close()
	srv.Close()
	r.Serve = &serveRecord{
		Clients:      rep.Clients,
		Points:       rep.Points,
		UniquePoints: rep.UniquePoints,
		Simulations:  rep.Simulations,
		DedupRate:    rep.DedupRate,
		WarmQueryMS:  rep.WarmQueryMS,
		ElapsedMS:    rep.ElapsedMS,
	}

	// Chaos: the same variants against a fresh daemon injecting seeded
	// faults (I/O errors, short reads, latency spikes, connection drops)
	// behind a deliberately tiny admission cap, driven by retrying
	// clients. Verify makes the hard invariant inline — any two clients
	// holding different grids for the same variant fails this run — while
	// the recorded rates stay informational: a different seed or machine
	// legitimately shifts them.
	const chaosSpec = "seed=7;io:err:0.05;io:shortread:0.03;io:latency:0.05:2ms;http:drop:0.01"
	inj, err := fault.NewFromString(chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	chaosDir, err := os.MkdirTemp("", "benchrec-chaos-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(chaosDir)
	csrv, err := serve.New(serve.Config{
		StoreDir: chaosDir, Parallelism: *par, MaxBacklog: 8, Faults: inj,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	cts := httptest.NewServer(csrv)
	var crep *load.Report
	timeIt("serve chaos (32 clients, faults on)", func() error {
		var err error
		crep, err = load.Run(ctx, client.New(cts.URL, client.WithRetry(client.DefaultRetryPolicy(8))),
			load.Options{Clients: 32, Variants: variants, SkipWarm: true,
				AllowFailures: true, Verify: true})
		return err
	})
	cts.Close()
	csrv.Close()
	r.Chaos = &chaosRecord{
		FaultSpec:   chaosSpec,
		Clients:     crep.Clients,
		Succeeded:   crep.Succeeded,
		SuccessRate: crep.SuccessRate,
		ShedSweeps:  crep.ShedSweeps,
		ShedRate:    crep.ShedRate,
		Faults:      crep.FaultsInjected,
		Verified:    crep.VerifiedClients,
		ElapsedMS:   crep.ElapsedMS,
	}
	fmt.Fprintf(os.Stderr, "benchrec: chaos: %.0f%% success, %.0f%% shed, %d faults injected, %d grids verified\n",
		100*crep.SuccessRate, 100*crep.ShedRate, crep.FaultsInjected, crep.VerifiedClients)

	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchrec: wrote %s (explore speedup %.2fx)\n", *out, r.Explore.Speedup)
	if *minScaling > 0 {
		if r.ScalingRatio == 0 {
			fmt.Fprintf(os.Stderr, "benchrec: -min-scaling %.2f set but no multi-core scaling point ran\n", *minScaling)
			os.Exit(1)
		}
		if r.ScalingRatio < *minScaling {
			fmt.Fprintf(os.Stderr, "benchrec: scaling_replay_ratio %.2fx below -min-scaling floor %.2fx\n",
				r.ScalingRatio, *minScaling)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchrec: scaling_replay_ratio %.2fx clears -min-scaling floor %.2fx\n",
			r.ScalingRatio, *minScaling)
	}
	if *compare != "" {
		if err := compareBaseline(&r, *compare, tol); err != nil {
			fmt.Fprintln(os.Stderr, "benchrec:", err)
			os.Exit(1)
		}
	}
}
