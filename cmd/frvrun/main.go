// frvrun executes an FRVL assembly program under the full memory-hierarchy
// simulation and reports cache and MAB statistics.
//
// Usage:
//
//	frvrun [-max N] [-dmab 2x8] [-imab 2x16] [-v] prog.s
//
// The program runs with a way-memoized D- and I-cache, each counting its
// original baseline on the same cache, and the I-cache also approach [4],
// so the report shows the paper's savings for this program.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"waymemo/internal/asm"
	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/power"
	"waymemo/internal/report"
	"waymemo/internal/sim"
	"waymemo/internal/stats"
	"waymemo/internal/suite"
	"waymemo/internal/trace"
)

func parseMAB(s string) (core.Config, error) {
	var nt, ns int
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &nt, &ns); err != nil {
		return core.Config{}, fmt.Errorf("bad MAB config %q (want NxM, e.g. 2x8)", s)
	}
	return core.Config{TagEntries: nt, SetEntries: ns}, nil
}

func main() {
	max := flag.Uint64("max", 500_000_000, "instruction budget")
	dmab := flag.String("dmab", "2x8", "D-cache MAB configuration (NtxNs)")
	imab := flag.String("imab", "2x16", "I-cache MAB configuration (NtxNs)")
	verbose := flag.Bool("v", false, "also dump the console output")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: frvrun [-max N] [-dmab 2x8] [-imab 2x16] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "frvrun:", err)
		os.Exit(1)
	}
	dcfg, err := parseMAB(*dmab)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frvrun:", err)
		os.Exit(1)
	}
	icfg, err := parseMAB(*imab)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frvrun:", err)
		os.Exit(1)
	}
	p, err := asm.Assemble(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "frvrun:", err)
		os.Exit(1)
	}

	// One cache per domain serves the original, the MAB (their Baseline
	// and lane) and, on the I side, approach [4].
	geo := cache.FRV32K
	dMAB := core.NewDLanes(geo, []core.Config{dcfg})
	iMAB := core.NewILanes(geo, []core.Config{icfg})
	iA4 := iMAB.ObserveApproach4()

	st := trace.NewStager([]trace.SinkPair{{Fetch: iMAB}, {Data: dMAB}})
	c := sim.New()
	c.Attach(st)
	c.LoadProgram(p, 0x001F0000)
	if err := c.Run(*max); err != nil {
		fmt.Fprintln(os.Stderr, "frvrun:", err)
		os.Exit(1)
	}
	st.Flush()
	fmt.Printf("halted after %d instructions, %d cycles\n", c.Instrs, c.Cycles)
	if *verbose && len(c.Console) > 0 {
		fmt.Printf("console: %q\n", string(c.Console))
	}

	t := report.Table{Title: "cache activity",
		Columns: []string{"cache", "technique", "accesses", "hit rate", "tags/access", "ways/access", "power mW"}}
	addRow := func(kind, tech string, s *stats.Counters, m power.Model) {
		b := power.Compute(s, c.Cycles, m)
		t.AddRow(kind, tech, fmt.Sprintf("%d", s.Accesses), report.Pct(s.HitRate()),
			report.F(s.TagsPerAccess(), 3), report.F(s.WaysPerAccess(), 3),
			report.F(b.TotalMW(), 2))
	}
	arr := suite.ArrayModel(geo)
	addRow("D", "original", dMAB.Baseline, arr)
	dm := arr
	dm.MAB = dcfg.Characterize()
	addRow("D", "mab-"+dcfg.String(), dMAB.Stats, dm)
	addRow("I", "original", iMAB.Baseline, arr)
	addRow("I", "approach[4]", iA4, arr)
	im := arr
	im.MAB = icfg.Characterize()
	addRow("I", "mab-"+icfg.String(), iMAB.Stats, im)
	t.Render(os.Stdout)

	fmt.Printf("\nD-MAB hit rate %s, I-MAB hit rate %s\n",
		report.Pct(dMAB.Stats.MABHitRate()), report.Pct(iMAB.Stats.MABHitRate()))
}
