package workloads

import (
	"strings"
	"testing"
)

// Every RV32 kernel port and synthetic pattern must execute to completion
// and validate against the same Go reference its FRVL rendering validates
// against — the bit-exact ground truth the cross-ISA comparison rests on.
func TestRV32WorkloadsValidate(t *testing.T) {
	names := []string{
		"rv32:DCT",
		"rv32:synth:pchase,fp=4KiB,seed=7",
		"rv32:synth:stream,fp=4KiB",
		"rv32:synth:blocked,fp=4KiB",
		"rv32:synth:phase,fp=4KiB",
		"rv32:synth:branchy,fp=4KiB",
		"rv32:synth:hotloop,fp=1KiB,n=2048",
	}
	for _, n := range names {
		ws, err := ExpandByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		for _, w := range ws {
			if w.ISA != ISARV32 {
				t.Fatalf("%s: ISA = %q, want %q", w.Name, w.ISA, ISARV32)
			}
			if w.DefaultPacketBytes() != 4 {
				t.Fatalf("%s: default packet = %d, want 4", w.Name, w.DefaultPacketBytes())
			}
			if _, err := Run(w, nil); err != nil {
				t.Fatalf("workload %s: %v", w.Name, err)
			}
		}
	}
}

func TestRV32ByName(t *testing.T) {
	w, err := ByName("rv32:DCT")
	if err != nil || w.Name != "rv32:DCT" || w.ISA != ISARV32 {
		t.Fatalf("ByName(rv32:DCT) = %q/%q, %v", w.Name, w.ISA, err)
	}
	if w, err := ByName("rv32:dct"); err != nil || w.Name != "rv32:DCT" {
		t.Fatalf("case-insensitive lookup = %q, %v", w.Name, err)
	}
	_, err = ByName("rv32:NoSuchKernel")
	if err == nil || !strings.Contains(err.Error(), "rv32:DCT") {
		t.Fatalf("unknown rv32 name error %v must list valid ports", err)
	}
}

// The FRVL and RV32 renderings of the same kernel are distinct workloads
// end to end: different names, different fingerprints (the fingerprint
// feeds build memoization, trace spills and explore keys), different
// default packets.
func TestRV32DistinctFromFRVL(t *testing.T) {
	frvl, err := ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := ByName("rv32:DCT")
	if err != nil {
		t.Fatal(err)
	}
	if frvl.Fingerprint() == rv.Fingerprint() {
		t.Fatal("FRVL and RV32 DCT share a fingerprint")
	}
	if frvl.DefaultPacketBytes() != 8 || rv.DefaultPacketBytes() != 4 {
		t.Fatalf("default packets = %d/%d, want 8/4",
			frvl.DefaultPacketBytes(), rv.DefaultPacketBytes())
	}

	spec := "synth:pchase,fp=4KiB,seed=7"
	sf, err := ByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := ByName(RV32Prefix + spec)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Fingerprint() == sr.Fingerprint() {
		t.Fatal("FRVL and RV32 renderings of one spec share a fingerprint")
	}
	if sr.Name != RV32Prefix+sf.Name || sr.Spec != sr.Name {
		t.Fatalf("rv32 spec naming: name=%q spec=%q (frvl %q)", sr.Name, sr.Spec, sf.Name)
	}
}

// A ranged rv32 spec expands the knob sweep with the prefix intact.
func TestRV32ExpandRange(t *testing.T) {
	ws, err := ExpandByName("rv32:synth:pchase,fp=1KiB..4KiB,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("expanded to %d workloads, want 3", len(ws))
	}
	for _, w := range ws {
		if !strings.HasPrefix(w.Name, "rv32:synth:pchase") || w.ISA != ISARV32 {
			t.Fatalf("expanded workload %q ISA %q", w.Name, w.ISA)
		}
	}
}

// SplitList must re-attach knob fragments to rv32-prefixed specs exactly
// like plain ones, so mixed-frontend -workloads lists round-trip over the
// serve wire protocol.
func TestSplitListRV32(t *testing.T) {
	got := SplitList("DCT,rv32:synth:pchase,fp=4KiB,seed=3,rv32:DCT")
	want := []string{"DCT", "rv32:synth:pchase,fp=4KiB,seed=3", "rv32:DCT"}
	if len(got) != len(want) {
		t.Fatalf("SplitList = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitList = %q, want %q", got, want)
		}
	}
}
