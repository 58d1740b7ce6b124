package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"waymemo/internal/explore"
	"waymemo/internal/sim"
	"waymemo/internal/suite"
	"waymemo/internal/synth"
	"waymemo/internal/workloads"
)

// runExplore is the `wmx explore` mode: build a Space from the axis flags,
// sweep it (memoized when -cache-dir is set) and print the analysis.
func runExplore(args []string) {
	fs := flag.NewFlagSet("wmx explore", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: wmx explore [flags]")
		fmt.Fprintln(fs.Output(), "sweep a cache design space and report per-config power, axis marginals,")
		fmt.Fprintln(fs.Output(), "the power/hit-rate Pareto frontier and the power-optimal MAB size")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), "\n-workloads accepts benchmark names and synthetic specs; a ranged knob")
		fmt.Fprintln(fs.Output(), "(fp=4KiB..64KiB doubles through the range) sweeps the workload axis:")
		fmt.Fprintln(fs.Output(), "  "+synth.SpecSyntax())
		fmt.Fprintln(fs.Output(), "  wmx explore -workloads 'synth:pchase,fp=4KiB..64KiB,seed=7'")
	}
	domain := fs.String("domain", "data", "cache to sweep: data or fetch")
	mabTags := fs.String("mab-tags", "1,2", "MAB tag-entry axis (comma-separated)")
	mabSets := fs.String("mab-sets", "4,8,16,32", "MAB set-entry axis (comma-separated)")
	sets := fs.String("sets", "512", "cache set-count axis (comma-separated, powers of two)")
	ways := fs.String("ways", "2", "cache way-count axis (comma-separated)")
	line := fs.String("line", "32", "cache line-size axis in bytes (comma-separated, powers of two)")
	wl := fs.String("workloads", "", "comma-separated benchmark names and/or synthetic specs (default: all seven benchmarks)")
	var packet uint32
	fs.Func("packet", "fetch-packet `bytes`: a power of two of at least 4, or 0 (the default) for the ISA's own packet",
		func(v string) error {
			pb, err := strconv.ParseUint(v, 0, 32)
			if ne := (*strconv.NumError)(nil); errors.As(err, &ne) {
				err = ne.Err // the flag package names the value already
			} else if err == nil {
				err = sim.CheckPacketBytes(uint32(pb))
			}
			packet = uint32(pb)
			return err
		})
	cacheDir := fs.String("cache-dir", "", "memoize grid points in this directory (reruns skip simulated points)")
	traceDir := fs.String("trace-dir", "", "spill captured event traces to this directory (WMTRACE4); reruns replay instead of simulating")
	par := fs.Int("j", 0, "grid points to simulate concurrently (0 = GOMAXPROCS)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	md := fs.Bool("md", false, "emit a markdown report")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "wmx explore: unexpected arguments %q\n", fs.Args())
		os.Exit(2)
	}
	validateJ(fs, *par, "wmx explore")

	space := explore.Space{PacketBytes: packet}
	switch strings.ToLower(*domain) {
	case "data", "d":
		space.Domain = suite.Data
	case "fetch", "i", "instruction":
		space.Domain = suite.Fetch
	default:
		fmt.Fprintf(os.Stderr, "wmx explore: unknown domain %q (valid: data, fetch)\n", *domain)
		os.Exit(2)
	}
	for _, axis := range []struct {
		name string
		spec string
		dst  *[]int
	}{
		{"mab-tags", *mabTags, &space.TagEntries},
		{"mab-sets", *mabSets, &space.SetEntries},
		{"sets", *sets, &space.Sets},
		{"ways", *ways, &space.Ways},
		{"line", *line, &space.LineBytes},
	} {
		vals, err := parseInts(axis.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmx explore: -%s: %v\n", axis.name, err)
			os.Exit(2)
		}
		*axis.dst = vals
	}
	if *wl == "" {
		space.Workloads = workloads.All()
	} else {
		// ParseList keeps a synthetic spec's own commas attached to it and
		// expands ranged knobs into one workload per swept value.
		ws, err := workloads.ParseList(*wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wmx explore:", err)
			os.Exit(2)
		}
		space.Workloads = ws
	}

	// Profiling starts only after argument validation, so usage errors
	// cannot leave a truncated profile behind.
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	opts := []explore.Option{
		explore.WithParallelism(*par),
		explore.WithProgress(func(p explore.Progress) {
			if !p.Done {
				return
			}
			how := "simulated"
			if p.Cached {
				how = "cached"
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %dKB/%dw %s\n",
				p.Index+1, p.Total, p.Workload, p.Geometry.SizeBytes()/1024,
				p.Geometry.Ways, how)
		}),
	}
	if *cacheDir != "" {
		opts = append(opts, explore.WithCacheDir(*cacheDir))
	}
	if *traceDir != "" {
		opts = append(opts, explore.WithTraceDir(*traceDir))
	}

	fmt.Fprintf(os.Stderr, "exploring %d grid points (%s-cache, batched fan-out replay)...\n",
		space.NumPoints(), space.Domain)
	grid, err := explore.Run(context.Background(), space, opts...)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "%d cached, %d simulated (%d executed, %d replayed, %d trace loads)\n",
		grid.Hits, grid.Misses, grid.Traces.Captures, grid.Traces.Replays, grid.Traces.DiskLoads)
	// Fan-out shape, so a batching regression is visible straight from the
	// CLI: more passes or fewer sinks per pass for the same grid means
	// captures are being re-streamed more than they should be. (Delivery
	// *rate* is the bench/ ledger's trace.fanout_ns_per_delivery row: it
	// times the passes alone, where a whole-sweep clock would mostly
	// measure simulation.)
	if tr := grid.Traces; tr.FanOutPasses > 0 {
		fmt.Fprintf(os.Stderr, "fan-out: %d passes (%d live), %.1f sinks/pass avg, %.1fM deliveries\n",
			tr.FanOutPasses, tr.LivePasses, tr.SinksPerPass(),
			float64(tr.FanOutDeliveries)/1e6)
	}
	fmt.Fprintln(os.Stderr)

	if *md {
		grid.WriteMarkdown(os.Stdout)
		return
	}
	grid.WriteReport(os.Stdout, *csv)
}

// parseInts parses a comma-separated axis specification like "4,8,16".
func parseInts(spec string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad value %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
