package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"waymemo/internal/explore"
	"waymemo/internal/suite"
	"waymemo/internal/workloads"
)

// The tests run the benchmark binary end to end — parent, set-up children
// and measuring child — at tiny sizes. TestMain turns the test binary into
// the benchmark when benchEnv is set, so the children it spawns are tiny
// too.
const (
	benchEnv   = "BENCH_TEST_MAIN"    // "1": run mainErr with the tiny config
	scratchEnv = "BENCH_TEST_SCRATCH" // scratch root for the run
	corruptEnv = "BENCH_TEST_CORRUPT" // "1": every golden digest is wrong
)

func tinyConfig() config {
	return config{
		tag:       "/tiny",
		paper:     func() []workloads.Workload { return []workloads.Workload{workloads.DCT()} },
		paperRV32: func() []workloads.Workload { return []workloads.Workload{workloads.RV32DCT()} },
		geoD: explore.Space{Domain: suite.Data, Sets: []int{128, 512}, Ways: []int{2}, LineBytes: []int{32},
			TagEntries: []int{2}, SetEntries: []int{8}},
		geoI: explore.Space{Domain: suite.Fetch, Sets: []int{512}, Ways: []int{2}, LineBytes: []int{32},
			TagEntries: []int{2}, SetEntries: []int{16}},
		serveSweeps:     4,
		synthAccesses:   1 << 10,
		synthFootprints: []int{4},
		minRepeats:      1,
	}
}

func TestMain(m *testing.M) {
	if os.Getenv(benchEnv) != "1" {
		os.Exit(m.Run())
	}
	activeConfig = tinyConfig()
	scratchRoot = os.Getenv(scratchEnv)
	if os.Getenv(corruptEnv) == "1" {
		for _, b := range benches {
			for _, key := range []string{b.name + activeConfig.tag, b.name + activeConfig.tag + "/seed=1"} {
				goldens[key] = "corrupt"
			}
		}
	}
	os.Exit(mainErr(os.Args[1:]))
}

// runBench runs the benchmark binary and returns its last stdout line and
// exit code.
func runBench(t *testing.T, corrupt bool, args ...string) (*result, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), benchEnv+"=1", scratchEnv+"="+t.TempDir())
	if corrupt {
		cmd.Env = append(cmd.Env, corruptEnv+"=1")
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v\nstderr:\n%s", args, lines[len(lines)-1], err, stderr.String())
	}
	return &res, code
}

// declared is BENCHMARK.json, which the output must match.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func unitsOf(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if b := lookup(w.Name); b == nil || b.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why differs from the benchmark's", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, code := runBench(t, false, "--workload", name, "--seed", "1", "--seconds", "0.05", "--trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v", code, res)
			}
			checkMetrics(t, name, res.Metrics, unitsOf(d.EndToEnd))
			for k, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			res, code = runBench(t, false, "--workload", name, "--seed", "1", "--seconds", "0.05", "--trace", "1", "--spans", spans)
			if code != 0 || !res.Correct {
				t.Fatalf("traced: exit %d, result %+v", code, res)
			}
			checkMetrics(t, name+" traced", res.Metrics, unitsOf(d.PerLayer))
			checkSpans(t, spans)
		})
	}
}

// checkSpans parses a span file and checks every span is well formed.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Spans []span }
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 {
		t.Fatal("no spans")
	}
	ids := map[int]bool{}
	for _, s := range f.Spans {
		ids[s.ID] = true
	}
	for _, s := range f.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d %s: parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d %s: ends before it starts", s.ID, s.Name)
		}
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	for _, name := range []string{"paper-live", "geo-sweep", "synth-capture"} {
		res, code := runBench(t, true, "--workload", name, "--seconds", "0.05")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupt golden: exit %d, result %+v; want a failure", name, code, res)
		}
	}
}
