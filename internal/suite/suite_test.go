package suite

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/workloads"
)

// raceWorkloads returns the benchmark pair the heavier suite tests run.
// Under -short (the CI race job) small synthetic workloads stand in for
// DCT/FFT: the properties under test are workload-independent, and the
// synthetic pair drives the same capture/replay machinery at a fraction of
// the instruction count.
func raceWorkloads(t *testing.T) []workloads.Workload {
	t.Helper()
	if !testing.Short() {
		return []workloads.Workload{workloads.DCT(), workloads.FFT()}
	}
	a, err := workloads.ByName("synth:hotloop,fp=1KiB,n=2048")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("synth:branchy,fp=1KiB,n=2048")
	if err != nil {
		t.Fatal(err)
	}
	return []workloads.Workload{a, b}
}

// TestParallelismDeterminism: the suite must produce byte-identical results
// at every parallelism level (each benchmark gets fresh technique
// instances, so runs are independent).
func TestParallelismDeterminism(t *testing.T) {
	ws := raceWorkloads(t)
	run := func(par int) []byte {
		t.Helper()
		r, err := Run(context.Background(),
			WithWorkloads(ws...),
			WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	seq := run(1)
	par := run(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("results differ between parallelism 1 and 8:\nseq %d bytes\npar %d bytes",
			len(seq), len(par))
	}
}

// TestResultsOrdered: Benchmarks must follow the workload list order, not
// completion order.
func TestResultsOrdered(t *testing.T) {
	ws := []workloads.Workload{workloads.FFT(), workloads.DCT()}
	r, err := Run(context.Background(), WithWorkloads(ws...), WithParallelism(2),
		WithTechniques(MustLookup(Data, DOrig)))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 2 ||
		r.Benchmarks[0].Name != "FFT" || r.Benchmarks[1].Name != "DCT" {
		t.Errorf("wrong order: %+v", r.Benchmarks)
	}
}

// TestExplicitlyEmptySelections: WithWorkloads() with no arguments means
// "run nothing", unlike omitting the option (which means "run all seven").
func TestExplicitlyEmptySelections(t *testing.T) {
	r, err := Run(context.Background(), WithWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 0 {
		t.Errorf("empty workload selection ran %d benchmarks", len(r.Benchmarks))
	}
	r, err = Run(context.Background(), WithWorkloads(workloads.DCT()), WithTechniques())
	if err != nil {
		t.Fatal(err)
	}
	if b := r.Benchmarks[0]; len(b.D)+len(b.I) != 0 {
		t.Errorf("empty technique selection attached %d techniques", len(b.D)+len(b.I))
	}
}

// spin is a workload that never halts — only cancellation can stop it.
var spin = workloads.Workload{
	Name:      "spin",
	Sources:   []string{"main:\tli t0, 0\nloop:\taddi t0, t0, 1\n\tb loop\n"},
	MaxInstrs: 1 << 62,
}

// TestRunCancellation: cancelling the context aborts a running benchmark
// promptly and Run returns ctx.Err().
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, WithWorkloads(spin), WithParallelism(1),
			WithTechniques(MustLookup(Data, DOrig)))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestRunPreCancelled: an already-cancelled context returns immediately
// without running anything.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started bool
	_, err := Run(ctx, WithWorkloads(spin),
		WithProgress(func(Progress) { started = true }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started {
		t.Error("benchmark started despite cancelled context")
	}
}

// TestDefaultTechniques: with no options, Run attaches the full standard
// registry — the eight instances of the paper's figures.
func TestDefaultTechniques(t *testing.T) {
	r, err := Run(context.Background(), WithWorkloads(workloads.DCT()))
	if err != nil {
		t.Fatal(err)
	}
	b := r.Benchmarks[0]
	if len(b.D) != 3 || len(b.I) != 5 {
		t.Fatalf("default technique counts: %d D, %d I (want 3, 5)", len(b.D), len(b.I))
	}
	for _, id := range []ID{DOrig, DSetBuf, DMAB} {
		if b.D[id].Stats == nil || b.D[id].Stats.Accesses == 0 {
			t.Errorf("D technique %q missing or idle", id)
		}
	}
	for _, id := range []ID{IOrig, IA4, IMAB8, IMAB16, IMAB32} {
		if b.I[id].Stats == nil || b.I[id].Stats.Accesses == 0 {
			t.Errorf("I technique %q missing or idle", id)
		}
	}
}

// TestRegisterNinthTechnique: adding a configuration to every sweep is one
// registration — no runner changes. A private registry keeps the test
// hermetic.
func TestRegisterNinthTechnique(t *testing.T) {
	reg := NewRegistry()
	for _, tech := range Techniques() {
		if err := reg.Register(tech); err != nil {
			t.Fatal(err)
		}
	}
	ninth := Technique{ID: "always-miss", Domain: Data, Desc: "degenerate baseline",
		New: func(geo cache.Config) Instance {
			c := baseline.NewOriginalD(geo)
			return Instance{Data: c, Stats: c.Stats, Model: ArrayModel(geo)}
		}}
	if err := reg.Register(ninth); err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), WithWorkloads(workloads.DCT()), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := r.Benchmarks[0].D["always-miss"]
	if !ok || tr.Stats.Accesses == 0 {
		t.Fatalf("ninth technique did not run: %+v", tr)
	}
}

// TestRegistryRejects: duplicates and malformed techniques must not
// register.
func TestRegistryRejects(t *testing.T) {
	reg := NewRegistry()
	ok := Technique{ID: "x", Domain: Data, New: MustLookup(Data, DOrig).New}
	if err := reg.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(ok); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Register(Technique{ID: "", Domain: Data, New: ok.New}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := reg.Register(Technique{ID: "y", Domain: Data}); err == nil {
		t.Error("nil factory accepted")
	}
	if err := reg.Register(Technique{ID: "y", Domain: Domain(9), New: ok.New}); err == nil {
		t.Error("bad domain accepted")
	}
	for _, m := range []core.Config{{SetEntries: 8}, {TagEntries: 2}, {Consistency: core.PolicyPaper}} {
		if err := reg.Register(Technique{ID: "y", Domain: Data, New: ok.New, Shares: Share{Part: Lane, MAB: m}}); err == nil {
			t.Errorf("lane of invalid MAB %+v accepted", m)
		}
	}
	for _, bad := range []Technique{
		{Domain: Data, Shares: Share{Part: Approach4 + 1}},
		{Domain: Fetch, Shares: Share{Part: SetBuffer}},
		{Domain: Data, Shares: Share{Part: Approach4}},
		{Domain: Data, Shares: Share{Part: Baseline, MAB: core.DefaultD}},
	} {
		bad.ID, bad.New = "y", ok.New
		if err := reg.Register(bad); err == nil {
			t.Errorf("share %s/%+v accepted", bad.Domain, bad.Shares)
		}
	}
	// The same ID in the other domain is a different technique.
	if err := reg.Register(Technique{ID: "x", Domain: Fetch,
		New: MustLookup(Fetch, IOrig).New}); err != nil {
		t.Errorf("cross-domain ID rejected: %v", err)
	}
}

// TestRunRejectsDuplicates: WithTechniques with two techniques of the same
// (domain, ID) would produce ambiguous result keys and must fail.
func TestRunRejectsDuplicates(t *testing.T) {
	d := MustLookup(Data, DOrig)
	if _, err := Run(context.Background(), WithWorkloads(workloads.DCT()),
		WithTechniques(d, d)); err == nil {
		t.Error("duplicate techniques accepted")
	}
}

// TestRunRejectsBrokenFactory: a factory that forgets the sink or the
// counters must fail with a named error, not a distant nil panic.
func TestRunRejectsBrokenFactory(t *testing.T) {
	noStats := Technique{ID: "no-stats", Domain: Data,
		New: func(geo cache.Config) Instance {
			c := baseline.NewOriginalD(geo)
			return Instance{Data: c}
		}}
	if _, err := Run(context.Background(), WithWorkloads(workloads.DCT()),
		WithTechniques(noStats)); err == nil {
		t.Error("factory without counters accepted")
	}
	noSink := Technique{ID: "no-sink", Domain: Fetch,
		New: func(geo cache.Config) Instance {
			c := baseline.NewOriginalI(geo)
			return Instance{Stats: c.Stats}
		}}
	if _, err := Run(context.Background(), WithWorkloads(workloads.DCT()),
		WithTechniques(noSink)); err == nil {
		t.Error("factory without sink accepted")
	}
}
