package main

import (
	"bytes"
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

// TestExpReportGolden pins the full EXPERIMENTS.md report, ablations
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
