package explore

import (
	"context"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/suite"
	"waymemo/internal/workloads"
)

// TestWorkloadSpecsAxis checks that the WorkloadSpecs axis expands names
// and ranged synthetic specs into grid workloads.
func TestWorkloadSpecsAxis(t *testing.T) {
	s, err := Space{
		Domain:        suite.Data,
		WorkloadSpecs: []string{"DCT", "synth:hotloop,fp=1KiB..4KiB"},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	want := []string{
		"DCT",
		"synth:hotloop,fp=1KiB,stride=4,n=65536,seed=1",
		"synth:hotloop,fp=2KiB,stride=4,n=65536,seed=1",
		"synth:hotloop,fp=4KiB,stride=4,n=65536,seed=1",
	}
	if len(names) != len(want) {
		t.Fatalf("workload axis = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("workload axis = %v, want %v", names, want)
		}
	}
	if len(s.WorkloadSpecs) != 0 {
		t.Error("normalized space still carries unexpanded specs")
	}

	// Bad specs and duplicate expansions fail normalization.
	if _, err := (Space{Domain: suite.Data, WorkloadSpecs: []string{"synth:nope"}}).Normalize(); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := (Space{Domain: suite.Data,
		WorkloadSpecs: []string{"synth:hotloop", "synth:hotloop,fp=4KiB"}}).Normalize(); err == nil {
		t.Error("duplicate expanded workload accepted")
	}
}

// TestSyntheticKeyFingerprint checks the cache-key contract for synthetic
// workloads: the key covers the generated content, not just the name, and
// paper-benchmark keys are untouched (TestKeyGolden pins that separately).
func TestSyntheticKeyFingerprint(t *testing.T) {
	mabs := []core.Config{{TagEntries: 2, SetEntries: 8}}
	w, err := workloads.ByName("synth:pchase,fp=1KiB")
	if err != nil {
		t.Fatal(err)
	}
	base := KeyWorkload(suite.Data, cache.FRV32K, w, 0, mabs)
	nameOnly := Key(suite.Data, cache.FRV32K, w.Name, 0, mabs)
	if base == nameOnly {
		t.Error("synthetic key ignores the content fingerprint")
	}
	// A fingerprint change under the same name must change the key.
	forged := w
	forged.Sources = append([]string{"; edited\n"}, w.Sources...)
	if KeyWorkload(suite.Data, cache.FRV32K, forged, 0, mabs) == base {
		t.Error("synthetic key ignores a content change")
	}
	// Paper workloads reduce to the name-only key.
	dct, _ := workloads.ByName("DCT")
	if KeyWorkload(suite.Data, cache.FRV32K, dct, 0, mabs) != Key(suite.Data, cache.FRV32K, "DCT", 0, mabs) {
		t.Error("paper-benchmark key changed")
	}
}

// TestFootprintVsMABReach is the scenario-diversity characterization the
// paper's fixed benchmark grid cannot express: chase a random pointer cycle
// through a growing footprint and watch way-memoization degrade.
//
// The D-MAB memoizes at most SetEntries distinct line addresses, so a
// pointer chase over N = footprint/stride nodes hits nearly always while
// N fits the set table and collapses to zero once the cyclic chase exceeds
// it (LRU's adversarial case). The test pins three facts across a
// footprint ramp: the hit rate is monotonically non-increasing, the cliff
// sits exactly at the MAB's reach (SetEntries x stride bytes), and growing
// the set table moves the cliff proportionally (2x32 holds on footprints
// that defeat 2x8).
//
// The sweep runs through the full explore pipeline with a result cache, so
// a warm rerun doubles as the synthetic round-trip acceptance check: every
// point served from cache, zero new simulations, zero new captures.
func TestFootprintVsMABReach(t *testing.T) {
	space := Space{
		Domain:     suite.Data,
		TagEntries: []int{2},
		SetEntries: []int{8, 32},
		// 64-byte nodes: footprints 256B..4KiB give 4..64 chase nodes,
		// straddling both set-table sizes.
		WorkloadSpecs: []string{"synth:pchase,fp=256..4KiB,stride=64,seed=3"},
	}
	dir := t.TempDir()
	run := func() *Grid {
		g, err := Run(context.Background(), space, WithCacheDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	cold := run()
	if cold.Misses != 5 || cold.Hits != 0 {
		t.Fatalf("cold sweep: hits=%d misses=%d, want 0/5", cold.Hits, cold.Misses)
	}

	// Per MAB size: [footprint] -> hit rate, in sweep order.
	const stride = 64
	type mabCol struct {
		setEntries int
		rates      []float64
	}
	cols := []mabCol{{setEntries: 8}, {setEntries: 32}}
	var footprints []int
	for _, p := range cold.Points {
		footprints = append(footprints, 256<<len(footprints))
		for i := range cols {
			tech := p.Techs[i+1] // Techs[0] is the baseline
			if tech.SetEntries != cols[i].setEntries {
				t.Fatalf("tech order: got %dx%d at column %d", tech.TagEntries, tech.SetEntries, i)
			}
			cols[i].rates = append(cols[i].rates, tech.Stats.MABHitRate())
		}
	}

	for _, c := range cols {
		reach := c.setEntries * stride
		for i, fp := range footprints {
			rate := c.rates[i]
			t.Logf("2x%-2d fp=%-5d nodes=%-3d hit=%.4f", c.setEntries, fp, fp/stride, rate)
			if i > 0 && rate > c.rates[i-1]+0.005 {
				t.Errorf("2x%d: hit rate rises %f -> %f at fp=%d; want monotone degradation",
					c.setEntries, c.rates[i-1], rate, fp)
			}
			if fp <= reach && rate < 0.95 {
				t.Errorf("2x%d: fp=%d within reach %d but hit rate %f < 0.95",
					c.setEntries, fp, reach, rate)
			}
			if fp > reach && rate > 0.01 {
				t.Errorf("2x%d: fp=%d beyond reach %d but hit rate %f > 0.01",
					c.setEntries, fp, reach, rate)
			}
		}
	}
	// The larger set table must dominate, strictly so between the two
	// reaches (1KiB and 2KiB footprints defeat 2x8 but fit 2x32).
	for i, fp := range footprints {
		if cols[1].rates[i]+1e-9 < cols[0].rates[i] {
			t.Errorf("fp=%d: 2x32 (%f) below 2x8 (%f)", fp, cols[1].rates[i], cols[0].rates[i])
		}
		if fp > 8*stride && fp <= 32*stride && cols[1].rates[i] < cols[0].rates[i]+0.5 {
			t.Errorf("fp=%d: 2x32 (%f) should dwarf 2x8 (%f) between the reaches",
				fp, cols[1].rates[i], cols[0].rates[i])
		}
	}

	// Warm rerun: the full synthetic round trip is memoized — every point
	// a cache hit, nothing simulated, nothing captured.
	warm := run()
	if warm.Hits != 5 || warm.Misses != 0 {
		t.Fatalf("warm sweep: hits=%d misses=%d, want 5/0", warm.Hits, warm.Misses)
	}
	if warm.Traces.Captures != 0 || warm.Traces.Replays != 0 {
		t.Fatalf("warm sweep executed workloads: %+v", warm.Traces)
	}
}
