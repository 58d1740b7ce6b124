package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// wmxBin is the wmx binary built once for every test in this file.
var wmxBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wmx-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wmxBin = filepath.Join(dir, "wmx")
	if out, err := exec.Command("go", "build", "-o", wmxBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building wmx: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runGolden runs wmx with args and demands its stdout match the committed
// golden file byte for byte. The goldens pin the CLI's results: every
// table, figure and grid row the simulator produces.
func runGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(wmxBin, args...)
	cmd.Dir = t.TempDir() // keep any default cache directories out of the tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("wmx %q: %v\n%s", args, err, stderr.Bytes())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("wmx %q: stdout differs from testdata/%s (%d vs %d bytes)",
			args, golden, stdout.Len(), len(want))
	}
}

// TestExpAllGolden regenerates every paper table and figure three ways —
// live, capturing into a fresh trace directory, and replaying from that
// directory's spills — and demands identical output each time.
func TestExpAllGolden(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "traces")
	for _, run := range []struct {
		name string
		args []string
	}{
		{"cold", []string{"-exp", "all"}},
		{"fresh trace dir", []string{"-exp", "all", "-trace-dir", traceDir}},
		{"warm trace dir", []string{"-exp", "all", "-trace-dir", traceDir}},
	} {
		t.Run(run.name, func(t *testing.T) { runGolden(t, "exp_all.txt", run.args...) })
	}
}

// TestExpReportGolden pins the full -exp report Markdown, ablations
// included.
func TestExpReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full report with every ablation; skipped in -short")
	}
	runGolden(t, "exp_report.txt", "-exp", "report")
}

// TestExploreGolden pins two design-space sweeps on shared traces, data
// and fetch domain.
func TestExploreGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"explore_sets.csv", []string{"explore", "-sets", "128,512", "-csv"}},
		{"explore_sets_fetch.csv", []string{"explore", "-sets", "128,512", "-csv", "-domain", "fetch"}},
	} {
		t.Run(c.golden+"/shared", func(t *testing.T) { runGolden(t, c.golden, c.args...) })
	}
}

// TestExplorePacketFlag: -packet takes a fetch-packet size the simulator
// accepts, 0 for the ISA's own packet or a power of two of at least 4 that
// fits in 32 bits, and anything else exits 2 with the usage before a
// single point is explored. A size past 32 bits once wrapped silently
// into a valid one.
func TestExplorePacketFlag(t *testing.T) {
	for _, c := range []struct {
		packet string
		ok     bool
	}{
		{"0", true},
		{"16", true},
		{"0x40", true},
		{"4294967304", false}, // 2^32 + 8
		{"4294967296", false},
		{"12", false},
		{"2", false},
		{"-8", false},
		{"eight", false},
	} {
		t.Run(c.packet, func(t *testing.T) {
			cmd := exec.Command(wmxBin, "explore", "-domain", "fetch", "-workloads", "synth:hotloop,fp=1KiB,n=1024",
				"-sets", "16", "-mab-tags", "2", "-mab-sets", "8", "-packet", c.packet)
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			explored := bytes.Contains(stderr.Bytes(), []byte("exploring"))
			if c.ok {
				if err != nil || !explored {
					t.Fatalf("-packet %s: %v\n%s", c.packet, err, stderr.Bytes())
				}
				return
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || explored ||
				!bytes.Contains(stderr.Bytes(), []byte("invalid value")) || !bytes.Contains(stderr.Bytes(), []byte("usage: wmx explore")) {
				t.Fatalf("-packet %s: %v, want exit 2 with a usage message and nothing explored\n%s", c.packet, err, stderr.Bytes())
			}
		})
	}
}
