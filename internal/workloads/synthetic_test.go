package workloads

import (
	"strings"
	"testing"

	"waymemo/internal/synth"
)

// TestSyntheticPatternsValidate runs every pattern end to end: the
// generated assembly must produce exactly the Go reference checksum — the
// same proof contract the seven paper benchmarks use.
func TestSyntheticPatternsValidate(t *testing.T) {
	for _, p := range synth.Patterns() {
		w, err := FromSpec(synth.Spec{Pattern: p, Accesses: 1 << 13})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(string(p), func(t *testing.T) {
			c, err := Run(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d instrs, %d cycles", w.Name, c.Instrs, c.Cycles)
		})
	}
}

func TestSyntheticWorkloadIdentity(t *testing.T) {
	a, err := FromSpec(synth.Spec{Pattern: synth.PointerChase, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec != a.Name || !synth.IsSpec(a.Name) {
		t.Fatalf("synthetic identity: Name=%q Spec=%q", a.Name, a.Spec)
	}
	// Same spec, different spelling: same name, same fingerprint — one
	// build memo entry, one trace spill, one explore cache key.
	b, err := ByName("synth:pchase,seed=7,fp=64k")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != a.Name || b.Fingerprint() != a.Fingerprint() {
		t.Fatalf("spellings diverge: %q/%x vs %q/%x", a.Name, a.Fingerprint(), b.Name, b.Fingerprint())
	}
	// Different seed: different program identity.
	c, err := FromSpec(synth.Spec{Pattern: synth.PointerChase, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("distinct seeds share a fingerprint")
	}
	// Synthetic builds are memoized like any workload.
	p1, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same spec built twice")
	}
}

func TestByNameUnknownListsSortedCandidates(t *testing.T) {
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	// The candidate list must be sorted and the synth syntax hinted.
	names := []string{"DCT", "FFT", "compress", "dhrystone", "jpeg_enc", "mpeg2enc", "whetstone"}
	last := -1
	for _, n := range names {
		i := strings.Index(msg, n)
		if i < 0 {
			t.Fatalf("error %q omits candidate %s", msg, n)
		}
		if i < last {
			t.Fatalf("error %q lists candidates unsorted", msg)
		}
		last = i
	}
	if !strings.Contains(msg, synth.SpecPrefix) {
		t.Errorf("error %q omits the synth spec hint", msg)
	}
}

func TestByNameBadSpec(t *testing.T) {
	if _, err := ByName("synth:nope"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := ByName("synth:pchase,fp=4KiB..64KiB"); err == nil {
		t.Fatal("ByName accepted a sweep; sweeps need ExpandByName")
	}
}

func TestExpandByName(t *testing.T) {
	ws, err := ExpandByName("synth:hotloop,fp=1KiB..8KiB")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("expanded to %d workloads, want 4", len(ws))
	}
	one, err := ExpandByName("DCT")
	if err != nil || len(one) != 1 || one[0].Name != "DCT" {
		t.Fatalf("ExpandByName(DCT) = %v, %v", one, err)
	}
}

func TestParseListReattachesSpecKnobs(t *testing.T) {
	ws, err := ParseList("DCT, synth:pchase,fp=1KiB..4KiB,seed=7 ,FFT")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range ws {
		names = append(names, w.Name)
	}
	want := []string{
		"DCT",
		"synth:pchase,fp=1KiB,stride=64,n=65536,seed=7",
		"synth:pchase,fp=2KiB,stride=64,n=65536,seed=7",
		"synth:pchase,fp=4KiB,stride=64,n=65536,seed=7",
		"FFT",
	}
	if strings.Join(names, "|") != strings.Join(want, "|") {
		t.Fatalf("ParseList = %v, want %v", names, want)
	}
	if _, err := ParseList(""); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := ParseList("fp=64KiB"); err == nil {
		t.Fatal("dangling knob accepted")
	}
}
