package synth

import (
	"strconv"
	"strings"
	"testing"
)

func TestParseSpecCanonicalRoundTrip(t *testing.T) {
	// Canonical names parse back to themselves, and loose spellings
	// normalize to the canonical form.
	cases := []struct {
		in   string
		want string
	}{
		{"synth:pchase,fp=64KiB,seed=7", "synth:pchase,fp=64KiB,stride=64,n=65536,seed=7"},
		{"pchase,fp=65536,seed=7", "synth:pchase,fp=64KiB,stride=64,n=65536,seed=7"},
		{"synth:pchase,seed=7,fp=64k", "synth:pchase,fp=64KiB,stride=64,n=65536,seed=7"},
		{"synth:hotloop", "synth:hotloop,fp=4KiB,stride=4,n=65536,seed=1"},
		{"synth:branchy,bias=30", "synth:branchy,fp=16KiB,bias=30,n=65536,seed=1"},
		{"synth:stream,fp=1MiB", ""}, // over the footprint cap
		{"synth:blocked,fp=100KiB", "synth:blocked,fp=64KiB,n=65536,seed=1"},
		{"synth:phase,phase=128,stride=8", "synth:phase,fp=64KiB,stride=8,phase=128,n=65536,seed=1"},
		// Footprints round down to whole strides; 9984 is not a whole KiB,
		// so it renders in bytes.
		{"synth:pchase,fp=10000,stride=64", "synth:pchase,fp=9984,stride=64,n=65536,seed=1"},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("%q: expected error, got %v", c.in, sp)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if got := sp.String(); got != c.want {
			t.Errorf("%q canonicalized to %q, want %q", c.in, got, c.want)
		}
		again, err := ParseSpec(sp.String())
		if err != nil || again != sp {
			t.Errorf("%q: canonical form does not round-trip: %v %v", c.in, again, err)
		}
		// Normalization must be idempotent — Generate re-normalizes its
		// input and relies on Normalized output passing unchanged.
		if renorm, err := sp.Normalized(); err != nil || renorm != sp {
			t.Errorf("%q: Normalized not idempotent: %v %v", c.in, renorm, err)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, in := range []string{
		"",
		"synth:",
		"synth:nope",
		"synth:pchase,fp",
		"synth:pchase,fp=",
		"synth:pchase,wat=3",
		"synth:pchase,fp=64KiB,fp=32KiB",
		"synth:pchase,stride=3",
		"synth:pchase,stride=64KiB", // over the stride cap
		"synth:hotloop,bias=50",     // bias is branchy-only
		"synth:stream,phase=64",     // phase is phase-only
		"synth:branchy,bias=150",
		"synth:branchy,bias=-1",          // negative knobs rejected at parse
		"synth:pchase,fp=300,stride=104", // rounds below the footprint floor
		"synth:pchase,n=10",
		"synth:pchase,fp=64",              // below the footprint floor
		"synth:pchase,seed=1..4",          // seed cannot range
		"synth:pchase,fp=4KiB..1KiB",      // inverted range
		"synth:pchase,fp=1k..4k,n=1k..4k", // two ranges
		"synth:pchase,fp=4KiB..64KiB",     // ranges need ExpandSpec
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}

// TestParseSpecRejectsWrappingKnobs: a size knob whose suffix multiplies
// it past the int range, or a seed past uint32, must be an error, not a
// wrapped value that happens to land in range.
func TestParseSpecRejectsWrappingKnobs(t *testing.T) {
	for _, in := range []string{
		"hotloop,fp=18014398509482048KiB",    // wrapped to fp=64KiB
		"stream,stride=18014398509481988KiB", // wrapped to stride=4096
		"hotloop,fp=9007199254740993MiB",
		"hotloop,fp=1KiB..18014398509482048KiB",
		"hotloop,seed=4294967297", // truncated to seed=1
		"hotloop,seed=4294967296", // truncated to 0, the default 1
		"hotloop,seed=9223372036854775807",
	} {
		if sp, err := ParseSpec(in); err == nil {
			t.Errorf("%q accepted as %s", in, sp)
		}
		if sps, err := ExpandSpec(in); err == nil {
			t.Errorf("%q expanded to %v", in, sps)
		}
	}
	sp, err := ParseSpec("hotloop,seed=4294967295")
	if err != nil || sp.Seed != 4294967295 {
		t.Errorf("largest seed: %+v, %v", sp, err)
	}
}

func TestExpandSpecRange(t *testing.T) {
	specs, err := ExpandSpec("synth:pchase,fp=4KiB..64KiB,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 5 {
		t.Fatalf("expanded to %d specs, want 5 (4,8,16,32,64KiB)", len(specs))
	}
	for i, sp := range specs {
		if want := (4 << 10) << i; sp.Footprint != want {
			t.Errorf("spec %d footprint = %d, want %d", i, sp.Footprint, want)
		}
		if sp.Seed != 7 {
			t.Errorf("spec %d seed = %d, want 7", i, sp.Seed)
		}
	}
	// A plain spec expands to itself.
	one, err := ExpandSpec("synth:stream")
	if err != nil || len(one) != 1 {
		t.Fatalf("plain spec: %v %v", one, err)
	}
}

// TestExpandSpecRangeDedupsNormalizedCollisions: blocked rounds footprints
// to power-of-two squares, so a doubling range can collapse adjacent values
// onto one canonical spec; the sweep must emit each spec once (duplicates
// would abort explore's workload axis).
func TestExpandSpecRangeDedupsNormalizedCollisions(t *testing.T) {
	specs, err := ExpandSpec("synth:blocked,fp=256..4KiB")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		name := sp.String()
		if seen[name] {
			t.Fatalf("range emitted %q twice", name)
		}
		seen[name] = true
	}
	// 256,512 -> 256; 1024,2048 -> 1024; 4096 -> 4096.
	if len(specs) != 3 {
		t.Fatalf("expanded to %d specs, want 3 deduped squares", len(specs))
	}
}

// TestBranchBiasExplicitZero: bias=0 (never taken) is a meaningful axis
// point, distinct from the omitted-knob default of 70.
func TestBranchBiasExplicitZero(t *testing.T) {
	sp, err := ParseSpec("synth:branchy,bias=0")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.String(); got != "synth:branchy,fp=16KiB,bias=0,n=65536,seed=1" {
		t.Fatalf("bias=0 canonicalized to %q", got)
	}
	if thr := sp.biasThreshold(); thr != 0 {
		t.Fatalf("bias=0 threshold = %d, want 0 (never taken)", thr)
	}
	// Idempotence: re-normalizing the canonical form keeps bias at 0.
	again, err := sp.Normalized()
	if err != nil || again != sp {
		t.Fatalf("normalization not idempotent for explicit zero: %v %v", again, err)
	}
	// The Go-side sentinel round-trips through the syntax.
	direct, err := Spec{Pattern: Branchy, BranchBias: -1}.Normalized()
	if err != nil || direct != sp {
		t.Fatalf("BranchBias -1 != parsed bias=0: %v %v", direct, err)
	}
}

func TestIsSpec(t *testing.T) {
	if !IsSpec("synth:pchase") || IsSpec("DCT") || IsSpec("") {
		t.Error("IsSpec misclassifies")
	}
}

func TestSpecDistinctNames(t *testing.T) {
	// Every pattern default and every knob perturbation names a distinct
	// workload — names are cache keys, collisions would alias results.
	seen := map[string]string{}
	add := func(label string, sp Spec) {
		n, err := sp.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		name := n.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("%s and %s share the name %q", label, prev, name)
		}
		seen[name] = label
	}
	for _, p := range Patterns() {
		add(string(p), Spec{Pattern: p})
		add(string(p)+"+seed", Spec{Pattern: p, Seed: 9})
		add(string(p)+"+fp", Spec{Pattern: p, Footprint: 32 << 10})
		add(string(p)+"+n", Spec{Pattern: p, Accesses: 2048})
	}
}

func TestSpecSyntaxMentionsAllPatterns(t *testing.T) {
	s := SpecSyntax()
	for _, p := range Patterns() {
		if !strings.Contains(s, string(p)) {
			t.Errorf("SpecSyntax() omits %s", p)
		}
		if Describe(p) == "" {
			t.Errorf("pattern %s has no description", p)
		}
	}
}

// FuzzSynthSpec feeds arbitrary text to ExpandSpec. It must never panic;
// every spec it accepts must re-parse from its String() to an equal Spec
// with the same String(); and every plain integer a knob was given must be
// the value the spec holds (footprints may only round down, and a zero
// means the default, except bias=0).
func FuzzSynthSpec(f *testing.F) {
	for _, seed := range []string{
		"synth:hotloop",
		"synth:pchase,fp=64KiB,seed=7",
		"pchase,fp=10000,stride=64",
		"synth:branchy,bias=0,n=4096",
		"synth:phase,phase=128,stride=8",
		"synth:blocked,fp=100KiB",
		"synth:stream,fp=4KiB..64KiB,stride=16",
		"synth:pchase,n=1k..4k",
		"hotloop,fp=18014398509482048KiB",
		"stream,stride=18014398509481988KiB",
		"hotloop,seed=4294967297",
		" Hotloop , FP = 2048 , seed = 4294967295 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		specs, err := ExpandSpec(text)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("%q: accepted with no specs", text)
		}
		written := map[string]int{}
		for _, field := range strings.Split(strings.TrimPrefix(strings.TrimSpace(text), SpecPrefix), ",")[1:] {
			key, val, _ := strings.Cut(strings.TrimSpace(field), "=")
			if v, err := strconv.Atoi(strings.TrimSpace(val)); err == nil {
				written[strings.ToLower(strings.TrimSpace(key))] = v
			}
		}
		for _, sp := range specs {
			name := sp.String()
			again, err := ParseSpec(name)
			if err != nil {
				t.Fatalf("%q: canonical %q does not re-parse: %v", text, name, err)
			}
			if again != sp || again.String() != name {
				t.Fatalf("%q: %+v re-parses from %q to %+v (%q)", text, sp, name, again, again.String())
			}
			for key, v := range written {
				if v == 0 && key != "bias" {
					continue // the default
				}
				var held int
				switch key {
				case "fp":
					if sp.Footprint > v || sp.Footprint <= 0 {
						t.Fatalf("%q: fp=%d held as %d", text, v, sp.Footprint)
					}
					continue
				case "stride":
					held = sp.Stride
				case "bias":
					held = max(sp.BranchBias, 0)
				case "phase":
					held = sp.PhaseLen
				case "n":
					held = sp.Accesses
				case "seed":
					held = int(sp.Seed)
				}
				if held != v {
					t.Fatalf("%q: %s=%d held as %d", text, key, v, held)
				}
			}
		}
	})
}
