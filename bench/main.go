// Command bench is the repository's benchmark: four seeded workloads that
// drive the way-memoization simulator through its public layers (suite,
// explore, the serve daemon, the trace engine), time them from outside,
// check every result, and print one JSON object of metrics.
//
// Usage, from the root of the checkout:
//
//	bash bench/run.sh --workload paper-live --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                    # every workload in turn
//	bash bench/run.sh --workload geo-sweep --trace 1 --spans spans.json
//
// Each workload runs in fresh child processes of this binary, one after
// another: several that only set up (their median is setup_s) and one that
// sets up and then measures for --seconds. Build memos, captures
// and peak memory therefore never leak between workloads or runs. With
// --trace 1 the measuring child instead runs one single-threaded repeat and
// the layer pass (layers.go), and prints the per-layer metrics.
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// A failed correctness check counts against "failed" and makes the process
// exit non-zero.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many fresh processes measure set-up per run; setup_s is
// their median.
const setupRuns = 9

// tailShare is the slowest share of the requests latency_tail_ms averages.
// Latencies come in clusters (the points of one replay pass finish
// together; a sweep is either all store hits or not), and one quantile
// jumps between clusters: over ten runs each, p90 spread by 19% between
// quartiles on geo-sweep and p50 by 16% on serve-mix, while the mean and
// the mean of the slowest quarter spread by at most 10% on every workload.
const tailShare = 0.25

// scratchRoot holds every directory a run creates (stores, caches, trace
// spills, span files). It is relative to the working directory, which is
// the checkout root when started through bench/run.sh.
var scratchRoot = filepath.Join(".bench_build", "scratch")

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	spans    string

	// Child-process protocol, set only by the parent.
	child string // "setup" or "run"
	t0    int64  // parent's clock just before the child started, Unix ns
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childReport is what a child prints as its last stdout line: its
// measurements, which the parent turns into metrics. Scaled times are quoted
// at the reference host speed (calibrate.go).
type childReport struct {
	SetupS    float64 `json:"setup_s"` // scaled
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// The timed repeats (--trace 0): points served, the seconds they took
	// as measured and scaled, every request's latency (scaled), and each
	// repeat's peak memory.
	Points        int       `json:"points"`
	Seconds       float64   `json:"seconds"`
	ScaledSeconds float64   `json:"scaled_seconds"`
	LatencyMS     []float64 `json:"latency_ms"`
	PeakRSSMiB    []float64 `json:"peak_rss_mib"`
	// The per-layer metrics (--trace 1).
	Layers map[string]metric `json:"layers,omitempty"`
}

// runInfo describes the environment of a run; it is printed on the line
// before the result.
type runInfo struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       int     `json:"trace"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Parallelism int     `json:"parallelism"`
	GoVersion   string  `json:"go_version"`
	Revision    string  `json:"vcs_revision,omitempty"`
}

func main() {
	os.Exit(mainErr(os.Args[1:]))
}

func mainErr(args []string) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all, one after another)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced layer pass and prints per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "span file written by --trace 1 (default .bench_build/scratch/spans-<workload>.json)")
	fs.StringVar(&o.child, "child", "", "internal: child-process role")
	fs.Int64Var(&o.t0, "t0", 0, "internal: parent clock at child start")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]")
		return 2
	}
	if o.child != "" {
		return childMain(o)
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = workloadNames()
	} else if lookup(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (valid: %v)\n", o.workload, workloadNames())
		return 2
	}
	code := 0
	for _, name := range names {
		wo := o
		wo.workload = name
		res, err := runParent(wo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		info, _ := json.Marshal(newRunInfo(wo))
		line, _ := json.Marshal(res)
		fmt.Printf("%s\n%s\n", info, line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func newRunInfo(o options) runInfo {
	info := runInfo{
		Workload:    o.workload,
		Seed:        o.seed,
		Seconds:     o.seconds,
		Trace:       o.trace,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: parallelism(),
		GoVersion:   runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				info.Revision = s.Value
			}
		}
	}
	return info
}

// parallelism is both the engine's worker count and the serve workload's
// client count: min(nproc, 4).
func parallelism() int { return min(runtime.NumCPU(), 4) }

// runParent measures one workload through child processes and assembles
// the result.
func runParent(o options) (*result, error) {
	var setups []float64
	if o.trace == 0 {
		for i := 0; i < setupRuns-1; i++ {
			rep, err := spawn(o, "setup")
			if err != nil {
				return nil, err
			}
			setups = append(setups, rep.SetupS)
		}
	}
	rep, err := spawn(o, "run")
	if err != nil {
		return nil, err
	}
	res := &result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Layers}
	if o.trace == 1 {
		return res, nil
	}
	setups = append(setups, rep.SetupS)
	slow := tail(rep.LatencyMS, tailShare)
	p50, p90 := quantile(rep.LatencyMS, 0.50), quantile(rep.LatencyMS, 0.90)
	fmt.Fprintf(os.Stderr, "bench: %s: %d points in %.2fs measured, %.4g points/s unscaled; "+
		"%d latency samples, the slowest %d in the tail; p50 %.4g ms, p90 %.4g ms with %d beyond\n",
		o.workload, rep.Points, rep.Seconds, float64(rep.Points)/rep.Seconds,
		len(rep.LatencyMS), len(slow), p50, p90, beyond(rep.LatencyMS, p90))
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"points_per_s":    {float64(rep.Points) / rep.ScaledSeconds, "points/s"},
		"latency_mean_ms": {mean(rep.LatencyMS), "ms"},
		"latency_tail_ms": {mean(slow), "ms"},
		"peak_rss_mb":     {mean(rep.PeakRSSMiB), "MiB"},
	}
	return res, nil
}

// spawn runs this binary as a child in the given role and waits for it.
// The child's stderr passes through; its last stdout line is the report.
func spawn(o options, role string) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--child", role,
		"--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(o.trace),
		"--spans", o.spans,
		"--t0", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var rep childReport
	if err := json.Unmarshal(last, &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s child: %w", role, runErr)
		}
		return nil, fmt.Errorf("%s child: bad report %q: %w", role, last, err)
	}
	// A child that found wrong results exits non-zero but still reports;
	// the report carries the failure.
	if runErr != nil && rep.Failed == 0 {
		return nil, fmt.Errorf("%s child: %w", role, runErr)
	}
	return &rep, nil
}

// quiesce collects garbage and returns freed memory to the system, so no
// mark cycle runs on into the next calibration, and the next repeat's peak
// memory starts from the live heap rather than from what the last check
// left resident.
func quiesce() { debug.FreeOSMemory() }

// resetPeakRSS restarts this process's peak resident set (VmHWM) from its
// current resident set, so the next peakRSS covers only what runs in
// between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is this process's peak resident set (VmHWM) in MiB. The
// rusage a parent gets for its child is no substitute: Linux folds the
// parent's own peak into it when the child execs.
func peakRSS() (float64, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// childMain is a child process: set up, then (role "run") measure.
func childMain(o options) int {
	w := lookup(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratchRoot, o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	e := &env{seed: o.seed, par: parallelism(), dir: dir, cfg: activeConfig}
	start := time.Now()
	if o.t0 != 0 {
		start = time.Unix(0, o.t0)
	}
	r, err := w.setup(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s setup: %v\n", o.workload, err)
		return 1
	}
	defer r.close()
	setup := time.Since(start)
	cal := newCalibrator(e.par)
	quiesce()
	c := cal.measure()
	rep := childReport{SetupS: setup.Seconds() * scale(c, c)}
	if o.child == "run" {
		if o.trace == 1 {
			spans := o.spans
			if spans == "" {
				spans = filepath.Join(scratchRoot, "spans-"+o.workload+".json")
			}
			err = traced(ctx, e, w.name, r, o.seconds, spans, &rep)
		} else {
			err = measure(ctx, e, w.name, r, o.seconds, cal, &rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
			return 1
		}
	}
	line, _ := json.Marshal(rep)
	fmt.Printf("%s\n", line)
	if rep.Failed != 0 {
		return 1
	}
	return 0
}

// measure repeats the workload until the measured time reaches seconds (and
// at least minRepeats times), checking every repeat outside the timed
// region. Each repeat is scaled by the calibrations either side of it, each
// taken after the check and a quiesce, so the calibration times an idle
// runtime: no daemon left up, no garbage collection left running. There is
// no warm-up repeat: every repeat starts from that quiesced runtime, with a
// fresh daemon, trace cache or directory, so the first is no colder than
// the rest.
//
// Peak memory is the mean of the repeats' peaks, each measured from the
// resident set the repeat starts with after that quiesce, so the checks in
// between do not count. Workloads made of several sweeps also quiesce
// before each one, untimed, so that one sweep's garbage does not raise the
// next one's peak. Without that, where the garbage collections fell moved
// a repeat's peak by up to 30% on geo-sweep and synth-capture.
func measure(ctx context.Context, e *env, name string, r runner, seconds float64, cal *calibrator, rep *childReport) error {
	quiesce()
	before := cal.measure()
	repeats := 0
	for repeats < e.cfg.minRepeats || rep.Seconds < seconds {
		repeats++
		if err := resetPeakRSS(); err != nil {
			return err
		}
		rp, err := r.run(ctx, e.par, repeats)
		if err != nil {
			return err
		}
		peak, err := peakRSS()
		if err != nil {
			return err
		}
		rep.PeakRSSMiB = append(rep.PeakRSSMiB, peak)
		rep.Attempted += rp.points
		rep.Failed += r.check(ctx)
		quiesce()
		after := cal.measure()
		k := scale(before, after)
		before = after
		rep.Points += rp.points
		rep.Seconds += rp.wall.Seconds()
		rep.ScaledSeconds += rp.wall.Seconds() * k
		for _, ms := range rp.lat {
			rep.LatencyMS = append(rep.LatencyMS, ms*k)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d timed repeats\n", name, repeats)
	return nil
}
