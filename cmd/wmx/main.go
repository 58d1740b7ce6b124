// wmx regenerates the paper's tables and figures, and sweeps cache design
// spaces.
//
// Usage:
//
//	wmx [-exp NAME] [-csv] [-j N] [-trace-dir DIR]
//	    [-cpuprofile FILE] [-memprofile FILE]
//	wmx explore [-domain data|fetch] [-mab-tags L] [-mab-sets L]
//	            [-sets L] [-ways L] [-line L] [-workloads NAMES]
//	            [-packet N] [-cache-dir DIR] [-trace-dir DIR]
//	            [-j N] [-csv] [-md] [-cpuprofile FILE] [-memprofile FILE]
//	wmx serve   [-listen ADDR] [-store-dir DIR] [-store-budget SIZE] [-j N]
//	            [-max-jobs N]
//	wmx crossisa [-kernel NAME] [-j N] [-csv] [-md] [-trace-dir DIR]
//
// NAME is one of: all, table1, table2, table3, fig4, fig5, fig6, fig7,
// fig8, ablation-d, ablation-i, consistency, packet, report.
//
// Running with -exp all (the default) executes the seven-benchmark suite
// once and prints every table and figure of the evaluation section. The
// ablation studies (ablation-d, ablation-i, consistency, packet) go beyond
// the paper's figures; report emits a Markdown report of every table,
// figure and ablation, published target beside measurement, on stdout.
// Benchmarks run concurrently (-j workers, default GOMAXPROCS).
//
// The explore mode runs the design-space engine (internal/explore): each
// axis flag takes a comma-separated list (L), the grid is their cross
// product, and the report covers per-configuration power, axis marginals,
// the power/hit-rate Pareto frontier and the power-optimal MAB size. With
// -cache-dir, completed grid points are memoized on disk and repeated
// sweeps skip every already-simulated point:
//
//	wmx explore -cache-dir .explore-cache          # the paper's D-MAB grid
//	wmx explore -domain fetch -mab-sets 8,16,32    # I-cache sweep
//	wmx explore -sets 256,512,1024 -ways 1,2,4     # geometry sweep
//
// The -workloads flag accepts the seven benchmark names and synthetic
// workload specs (see internal/synth and wmsynth -patterns); a ranged knob
// sweeps the workload axis:
//
//	wmx explore -workloads 'synth:pchase,fp=4KiB..64KiB,seed=7'
//
// The crossisa mode runs the I-cache technique zoo on one kernel under both
// frontends — the FRVL rendering and its RV32I port (see internal/isa/rv32)
// — and prints per-technique power and MAB hit rate side by side:
//
//	wmx crossisa -kernel DCT
//	wmx crossisa -kernel 'synth:pchase,fp=4KiB,seed=7'
//
// The explore -workloads list mixes frontends freely; an "rv32:" prefix
// selects the RV32I rendering of a kernel or spec ("DCT,rv32:DCT").
//
// The serve mode (default address 127.0.0.1:8077) runs the sweep daemon
// (internal/serve): clients POST explore sweeps to /v1/sweeps, follow
// per-point progress over server-sent events and query warm analytics;
// identical in-flight grid points are deduplicated across clients and one
// shared, byte-budgeted result + trace store serves everyone. See
// tools/loadgen for the matching load harness.
//
// Both modes run on the execute-once / replay-many trace engine: each
// workload is simulated once per process and its captured event stream is
// replayed to every technique and geometry (bit-identical results, several
// times faster on sweeps). Replays run as batched fan-out passes: one walk
// of the capture feeds every attached technique sink. With -trace-dir the
// captures are spilled as WMTRACE4 files and reloaded by later invocations;
// -cpuprofile and -memprofile write pprof profiles of whatever was run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"waymemo/internal/experiments"
	"waymemo/internal/report"
	"waymemo/internal/suite"
)

// expNames lists every accepted -exp value, in help order.
var expNames = []string{
	"all",
	"table1", "table2", "table3",
	"fig4", "fig5", "fig6", "fig7", "fig8",
	"ablation-d", "ablation-i", "consistency", "packet",
	"report",
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explore" {
		runExplore(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "crossisa" {
		runCrossISA(os.Args[2:])
		return
	}
	exp := flag.String("exp", "all",
		"experiment to run: "+strings.Join(expNames, ", ")+
			" (the design-space mode is separate; see: wmx explore -h)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	par := flag.Int("j", 0, "benchmarks to simulate concurrently (0 = GOMAXPROCS)")
	traceDir := flag.String("trace-dir", "",
		"spill captured event traces to this directory (WMTRACE4); reruns replay instead of simulating")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	validateJ(flag.CommandLine, *par, "wmx")

	which := strings.ToLower(*exp)
	known := false
	for _, n := range expNames {
		if which == n {
			known = true
			break
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "wmx: unknown experiment %q (valid: %s)\n",
			*exp, strings.Join(expNames, ", "))
		os.Exit(2)
	}
	// Profiling starts only after argument validation, so usage errors
	// cannot leave a truncated profile behind.
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	emit := func(t report.Table) {
		if *csv {
			t.RenderCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}

	ctx := context.Background()

	// One trace cache shared by every run below: with -trace-dir, captures
	// spill to disk and later invocations replay instead of simulating; the
	// report mode — many suite passes over the same workloads — always
	// shares an in-memory cache, so each workload executes once and every
	// ablation replays its capture. The packet ablation is the exception:
	// each non-default packet size needs its own whole-suite capture that
	// nothing else reuses, so sharing the cache there would only pin
	// hundreds of MB of one-shot captures — it joins the sharing only when
	// the user asked for cross-run reuse with -trace-dir.
	base := []suite.Option{suite.WithParallelism(*par)}
	common := base
	packetCommon := common
	if *traceDir != "" {
		tc, err := suite.NewDirTraceCache(*traceDir)
		exitOn(err)
		common = append(base[:len(base):len(base)], suite.WithTraceCache(tc))
		packetCommon = common
	} else if which == "report" {
		common = append(base[:len(base):len(base)], suite.WithTraceCache(suite.NewTraceCache()))
	}

	runSuite := func(banner string) *experiments.Results {
		fmt.Fprintln(os.Stderr, banner)
		r, err := suite.Run(ctx, append([]suite.Option{
			suite.WithProgress(func(p suite.Progress) {
				if p.Done {
					fmt.Fprintf(os.Stderr, "  %s done\n", p.Workload)
				}
			})}, common...)...)
		exitOn(err)
		return r
	}

	var results *experiments.Results
	if which == "all" || strings.HasPrefix(which, "fig") {
		results = runSuite("running the seven-benchmark suite...")
	}

	// ran guards the expNames list against drifting from the dispatch
	// below: every accepted name must produce output.
	ran := false
	want := func(name string) bool {
		if which == "all" || which == name {
			ran = true
			return true
		}
		return false
	}
	if want("table1") {
		emit(experiments.Table1())
	}
	if want("table2") {
		emit(experiments.Table2())
	}
	if want("table3") {
		emit(experiments.Table3())
	}
	if want("fig4") {
		emit(experiments.AccessTable(
			"Figure 4: tag and way accesses per D-cache access", experiments.Figure4(results)))
	}
	if want("fig5") {
		emit(experiments.PowerTable(
			"Figure 5: D-cache power (mW)", experiments.Figure5(results)))
	}
	if want("fig6") {
		emit(experiments.AccessTable(
			"Figure 6: tag and way accesses per I-cache access", experiments.Figure6(results)))
	}
	if want("fig7") {
		emit(experiments.PowerTable(
			"Figure 7: I-cache power (mW)", experiments.Figure7(results)))
	}
	if want("fig8") {
		rows := experiments.Figure8(results)
		emit(experiments.Figure8Table(rows))
		avg, max := experiments.AverageSaving(rows)
		fmt.Printf("average total saving: %s   maximum: %s\n\n", report.Pct(avg), report.Pct(max))
	}
	// Studies beyond the paper's figures (not part of -exp all).
	if which == "ablation-d" {
		ran = true
		rows, err := experiments.AblationD(ctx, common...)
		exitOn(err)
		emit(experiments.AblationTable("D-cache techniques (7-benchmark average)", rows))
	}
	if which == "ablation-i" {
		ran = true
		rows, err := experiments.AblationI(ctx, common...)
		exitOn(err)
		emit(experiments.AblationTable("I-cache techniques (7-benchmark average)", rows))
	}
	if which == "consistency" {
		ran = true
		rows, err := experiments.AblationConsistency(ctx, common...)
		exitOn(err)
		emit(experiments.ConsistencyTable(rows))
	}
	if which == "packet" {
		ran = true
		rows, err := experiments.AblationPacket(ctx, packetCommon...)
		exitOn(err)
		emit(experiments.PacketTable(rows))
	}
	if which == "report" {
		// The Markdown report on stdout: the full suite plus every ablation
		// study.
		ran = true
		results := runSuite("running the seven-benchmark suite and all ablations...")
		ablD, err := experiments.AblationD(ctx, common...)
		exitOn(err)
		ablI, err := experiments.AblationI(ctx, common...)
		exitOn(err)
		cons, err := experiments.AblationConsistency(ctx, common...)
		exitOn(err)
		packet, err := experiments.AblationPacket(ctx, packetCommon...)
		exitOn(err)
		experiments.WriteMarkdown(os.Stdout, results, ablD, ablI, cons, packet)
	}
	if !ran {
		// Unreachable while expNames and the dispatch above agree; catches
		// a name added to the list without a branch.
		fmt.Fprintf(os.Stderr, "wmx: experiment %q accepted but not dispatched\n", *exp)
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmx:", err)
		flushProfiles()
		os.Exit(1)
	}
}
