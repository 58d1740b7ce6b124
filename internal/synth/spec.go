package synth

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file defines the parameterized synthetic workload family: a Spec
// names one deterministic access-pattern program (pattern + knobs + seed),
// compiled to FRVL assembly by Generate (gen.go). Specs exist because the
// paper's seven benchmarks pin only seven points of the locality space the
// MAB's hit rate depends on; a spec sweep (e.g. a pointer-chase footprint
// ramp) probes the space between and beyond them.
//
// The mini-syntax is
//
//	synth:<pattern>[,knob=value]...
//
// e.g. "synth:pchase,fp=64KiB,seed=7". Knobs the pattern does not use are
// rejected; omitted knobs take pattern-specific defaults. String renders the
// canonical form — every knob the pattern uses, in fixed order, with
// effective (post-normalization) values — so two spellings of the same
// workload share one name, one build memo entry, one trace spill and one
// explore cache key.

// SpecPrefix marks a workload name as a synthetic spec.
const SpecPrefix = "synth:"

// GenVersion is the synthetic generator's semantic version. It is embedded
// in every generated program (a comment line, hence part of the workload
// fingerprint), so a generator change invalidates persisted trace spills
// and explore cache entries instead of silently answering for different
// programs.
const GenVersion = 1

// Pattern selects the access-pattern shape of a synthetic workload.
type Pattern string

const (
	// HotLoop is a read-modify-write loop over a small window: the high
	// locality regime where way memoization shines.
	HotLoop Pattern = "hotloop"
	// Branchy is a sequential walk whose loop body forks on the data, with
	// a bias knob for the taken fraction — irregular control flow for the
	// I-cache MAB.
	Branchy Pattern = "branchy"
	// PointerChase follows a seeded random cyclic permutation through the
	// footprint: minimal spatial locality, the MAB's worst case.
	PointerChase Pattern = "pchase"
	// Streaming walks the footprint sequentially at a stride and wraps:
	// predictable addresses, no reuse within the MAB's reach once the
	// footprint exceeds it.
	Streaming Pattern = "stream"
	// BlockedMatrix sweeps a square matrix in 8x8-word tiles — the tiled
	// locality of the DCT/JPEG kernels, with a size knob.
	BlockedMatrix Pattern = "blocked"
	// PhaseSwitch alternates between a hot 2KiB window and a strided
	// stream every PhaseLen accesses, exercising MAB re-warming.
	PhaseSwitch Pattern = "phase"
)

// Patterns lists every pattern in canonical order.
func Patterns() []Pattern {
	return []Pattern{HotLoop, Branchy, PointerChase, Streaming, BlockedMatrix, PhaseSwitch}
}

// Spec is one synthetic workload: a pattern plus its knobs. The zero value
// of a knob means "use the pattern's default"; Normalized fills them in.
type Spec struct {
	Pattern Pattern
	// Footprint is the data working-set size in bytes (knob "fp").
	Footprint int
	// Stride is the byte distance between consecutive accesses (knob
	// "stride"); for pchase it is the node spacing.
	Stride int
	// BranchBias is the taken percentage of branchy's data-dependent
	// branch, 0-100 (knob "bias"). Like every knob, the zero value means
	// "use the default" (70); a never-taken branch is expressed as -1 in
	// Go (the spec syntax just says bias=0 — the parser translates).
	BranchBias int
	// PhaseLen is the number of accesses per phase for phase (knob
	// "phase").
	PhaseLen int
	// Accesses is the main loop's iteration count (knob "n").
	Accesses int
	// Seed drives data generation and the pchase permutation (knob
	// "seed"). Seed 0 normalizes to 1.
	Seed uint32
}

// knob limits; footprints must leave room below the stack (the data region
// spans 0x100000-0x1F0000, just under 1MiB).
const (
	minFootprint = 256
	maxFootprint = 512 << 10
	minAccesses  = 1 << 10
	maxAccesses  = 16 << 20
	// maxStride keeps the stride within the addi immediate the generated
	// loops advance by.
	maxStride = 8 << 10
)

// patternInfo is the per-pattern knob table: which knobs the pattern uses
// (and therefore which appear in the canonical name) and their defaults.
type patternInfo struct {
	desc            string
	fp              int  // default footprint
	stride          int  // default stride; 0 = pattern does not use stride
	usesBias        bool // branchy only
	usesPhase       bool // phase only
	squareFootprint bool // blocked: footprint rounds to a square side
}

var patterns = map[Pattern]patternInfo{
	HotLoop:       {desc: "read-modify-write loop over a hot window", fp: 4 << 10, stride: 4},
	Branchy:       {desc: "sequential walk with a data-dependent branch", fp: 16 << 10, usesBias: true},
	PointerChase:  {desc: "seeded random pointer chase", fp: 64 << 10, stride: 64},
	Streaming:     {desc: "strided streaming walk", fp: 256 << 10, stride: 4},
	BlockedMatrix: {desc: "8x8-word tiled matrix sweep", fp: 64 << 10, squareFootprint: true},
	PhaseSwitch:   {desc: "alternating hot window / strided stream", fp: 64 << 10, stride: 32, usesPhase: true},
}

// IsSpec reports whether a workload name is a synthetic spec (has the
// "synth:" prefix).
func IsSpec(name string) bool { return strings.HasPrefix(name, SpecPrefix) }

// Normalized validates the spec, fills defaulted knobs and rounds the
// footprint to the pattern's alignment (a stride multiple; a square
// power-of-two side for blocked). Generate requires a normalized spec.
func (s Spec) Normalized() (Spec, error) {
	info, ok := patterns[s.Pattern]
	if !ok {
		return s, fmt.Errorf("synth: unknown pattern %q (valid: %s)", s.Pattern, patternList())
	}
	if s.Footprint == 0 {
		s.Footprint = info.fp
	}
	if s.Footprint < minFootprint || s.Footprint > maxFootprint {
		return s, fmt.Errorf("synth: footprint %d out of range [%d, %d]", s.Footprint, minFootprint, maxFootprint)
	}
	if info.stride == 0 {
		if s.Stride != 0 {
			return s, fmt.Errorf("synth: pattern %s does not take a stride", s.Pattern)
		}
	} else {
		if s.Stride == 0 {
			s.Stride = info.stride
		}
		if s.Stride < 4 || s.Stride > maxStride || s.Stride%4 != 0 {
			return s, fmt.Errorf("synth: stride %d not a multiple of 4 in [4, %d]", s.Stride, maxStride)
		}
		if s.Stride*2 > s.Footprint {
			return s, fmt.Errorf("synth: stride %d leaves fewer than two elements in footprint %d", s.Stride, s.Footprint)
		}
		// The walk wraps at the footprint; round it down to whole strides
		// so every access lands inside it.
		s.Footprint -= s.Footprint % s.Stride
	}
	if info.usesBias {
		switch {
		case s.BranchBias == 0:
			s.BranchBias = 70
		case s.BranchBias == -1:
			// Explicit never-taken (spec syntax bias=0); the sentinel is
			// kept so normalization is idempotent — String renders it as
			// bias=0 and biasThreshold as 0%.
		case s.BranchBias < 0 || s.BranchBias > 100:
			return s, fmt.Errorf("synth: branch bias %d%% out of range [0, 100]", s.BranchBias)
		}
	} else if s.BranchBias != 0 {
		return s, fmt.Errorf("synth: pattern %s does not take a branch bias", s.Pattern)
	}
	if info.usesPhase {
		if s.PhaseLen == 0 {
			s.PhaseLen = 4096
		}
		if s.PhaseLen < 16 || s.PhaseLen > maxAccesses {
			return s, fmt.Errorf("synth: phase length %d out of range [16, %d]", s.PhaseLen, maxAccesses)
		}
	} else if s.PhaseLen != 0 {
		return s, fmt.Errorf("synth: pattern %s does not take a phase length", s.Pattern)
	}
	if s.Accesses == 0 {
		s.Accesses = 1 << 16
	}
	if s.Accesses < minAccesses || s.Accesses > maxAccesses {
		return s, fmt.Errorf("synth: access count %d out of range [%d, %d]", s.Accesses, minAccesses, maxAccesses)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if info.squareFootprint {
		// Round down to a square with a power-of-two side of at least 8
		// words, so tiles divide the matrix exactly.
		s.Footprint = squareSide(s.Footprint) * squareSide(s.Footprint) * 4
	} else if s.Stride == 0 {
		s.Footprint -= s.Footprint % 4
	}
	// Rounding only shrinks (the floor was checked pre-rounding), but a
	// coarse stride can shrink the footprint below the floor; re-check so
	// Normalized output always re-normalizes to itself (Generate depends
	// on that).
	if s.Footprint < minFootprint {
		return s, fmt.Errorf("synth: footprint rounds down to %d (below the %d-byte floor); raise fp or shrink stride",
			s.Footprint, minFootprint)
	}
	return s, nil
}

// squareSide is the side, in words, of the largest power-of-two square
// matrix fitting a footprint — the blocked pattern's geometry, shared by
// normalization (which pins the footprint to exactly side²·4) and the
// generator.
func squareSide(footprint int) int {
	side := 8
	for (2*side)*(2*side)*4 <= footprint {
		side *= 2
	}
	return side
}

// String renders the canonical spec: the pattern plus every knob it uses in
// fixed order, with effective values. Specs that fail to normalize render
// their raw fields (String must not panic; errors surface via Normalized).
func (s Spec) String() string {
	if n, err := s.Normalized(); err == nil {
		s = n
	}
	var b strings.Builder
	b.WriteString(SpecPrefix)
	b.WriteString(string(s.Pattern))
	fmt.Fprintf(&b, ",fp=%s", humanSize(s.Footprint))
	info := patterns[s.Pattern]
	if info.stride != 0 {
		fmt.Fprintf(&b, ",stride=%d", s.Stride)
	}
	if info.usesBias {
		// The -1 never-taken sentinel renders as its spec spelling, bias=0.
		fmt.Fprintf(&b, ",bias=%d", max(s.BranchBias, 0))
	}
	if info.usesPhase {
		fmt.Fprintf(&b, ",phase=%d", s.PhaseLen)
	}
	fmt.Fprintf(&b, ",n=%d,seed=%d", s.Accesses, s.Seed)
	return b.String()
}

// ParseSpec parses the mini-syntax (with or without the "synth:" prefix)
// into a normalized Spec. Range values ("4KiB..64KiB") are rejected here;
// use ExpandSpec for sweeps.
func ParseSpec(text string) (Spec, error) {
	specs, err := ExpandSpec(text)
	if err != nil {
		return Spec{}, err
	}
	if len(specs) != 1 {
		return Spec{}, fmt.Errorf("synth: spec %q is a sweep of %d workloads; expand it first", text, len(specs))
	}
	return specs[0], nil
}

// ExpandSpec parses the mini-syntax, expanding at most one ranged knob
// ("fp=4KiB..64KiB" doubles from the low bound while it stays at or below
// the high bound) into one Spec per value. A plain spec yields one Spec.
func ExpandSpec(text string) ([]Spec, error) {
	body := strings.TrimPrefix(strings.TrimSpace(text), SpecPrefix)
	fields := strings.Split(body, ",")
	if fields[0] == "" {
		return nil, fmt.Errorf("synth: empty spec (expected %s<pattern>[,knob=value]...)", SpecPrefix)
	}
	base := Spec{Pattern: Pattern(strings.ToLower(strings.TrimSpace(fields[0])))}
	if _, ok := patterns[base.Pattern]; !ok {
		return nil, fmt.Errorf("synth: unknown pattern %q (valid: %s)", fields[0], patternList())
	}
	type ranged struct {
		set      func(*Spec, int)
		lo, hi   int
		knobName string
	}
	var sweep *ranged
	seen := map[string]bool{}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(f), "=")
		key = strings.ToLower(strings.TrimSpace(key))
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("synth: malformed knob %q (expected knob=value)", f)
		}
		if seen[key] {
			return nil, fmt.Errorf("synth: duplicate knob %q", key)
		}
		seen[key] = true
		var set func(*Spec, int)
		size := false
		switch key {
		case "fp":
			set, size = func(s *Spec, v int) { s.Footprint = v }, true
		case "stride":
			set, size = func(s *Spec, v int) { s.Stride = v }, true
		case "bias":
			set = func(s *Spec, v int) {
				if v == 0 {
					v = -1 // explicit zero, distinct from "use the default"
				}
				s.BranchBias = v
			}
		case "phase":
			set = func(s *Spec, v int) { s.PhaseLen = v }
		case "n":
			set = func(s *Spec, v int) { s.Accesses = v }
		case "seed":
			set = func(s *Spec, v int) { s.Seed = uint32(v) }
		default:
			return nil, fmt.Errorf("synth: unknown knob %q (valid: fp, stride, bias, phase, n, seed)", key)
		}
		if lo, hi, isRange := strings.Cut(val, ".."); isRange {
			if key == "seed" || key == "bias" {
				return nil, fmt.Errorf("synth: knob %q cannot be a range", key)
			}
			loV, err := parseKnobValue(lo, size)
			if err != nil {
				return nil, fmt.Errorf("synth: knob %s: %w", key, err)
			}
			hiV, err := parseKnobValue(hi, size)
			if err != nil {
				return nil, fmt.Errorf("synth: knob %s: %w", key, err)
			}
			if loV <= 0 || hiV < loV {
				return nil, fmt.Errorf("synth: bad range %s=%s", key, val)
			}
			if sweep != nil {
				return nil, fmt.Errorf("synth: at most one knob may be a range (%s and %s)", sweep.knobName, key)
			}
			sweep = &ranged{set: set, lo: loV, hi: hiV, knobName: key}
			continue
		}
		v, err := parseKnobValue(val, size)
		if err != nil {
			return nil, fmt.Errorf("synth: knob %s: %w", key, err)
		}
		// Every knob is a count or percentage; rejecting negatives here
		// also keeps them clear of Normalized's internal sentinels (the
		// bias=0 translation below).
		if v < 0 {
			return nil, fmt.Errorf("synth: knob %s: negative value %d", key, v)
		}
		if key == "seed" && v > math.MaxUint32 {
			return nil, fmt.Errorf("synth: knob seed: %d exceeds %d", v, uint32(math.MaxUint32))
		}
		set(&base, v)
	}
	if sweep == nil {
		n, err := base.Normalized()
		if err != nil {
			return nil, err
		}
		return []Spec{n}, nil
	}
	var out []Spec
	emitted := map[string]bool{}
	for v := sweep.lo; v <= sweep.hi; v *= 2 {
		s := base
		sweep.set(&s, v)
		n, err := s.Normalized()
		if err != nil {
			return nil, fmt.Errorf("synth: %s=%d in range: %w", sweep.knobName, v, err)
		}
		// Normalization rounding (stride multiples, blocked's square
		// footprint) can collapse adjacent range values onto one canonical
		// spec; emit each canonical spec once so sweeps stay duplicate-free.
		if name := n.String(); !emitted[name] {
			emitted[name] = true
			out = append(out, n)
		}
	}
	return out, nil
}

// parseKnobValue parses a knob value; size knobs additionally accept
// binary-size suffixes (KiB/MiB, and the shorthands k/K/m/M, all 1024-based).
func parseKnobValue(val string, size bool) (int, error) {
	val = strings.TrimSpace(val)
	mult := 1
	if size {
		for _, sf := range []struct {
			suffix string
			mult   int
		}{
			{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"KB", 1 << 10}, {"MB", 1 << 20},
			{"k", 1 << 10}, {"K", 1 << 10}, {"m", 1 << 20}, {"M", 1 << 20},
		} {
			if strings.HasSuffix(val, sf.suffix) {
				mult, val = sf.mult, strings.TrimSuffix(val, sf.suffix)
				break
			}
		}
	}
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", val)
	}
	if v > math.MaxInt/mult || v < math.MinInt/mult {
		return 0, fmt.Errorf("value %q overflows", val)
	}
	return v * mult, nil
}

// humanSize renders byte counts with exact binary suffixes ("64KiB"), or
// plain bytes when not a whole KiB.
func humanSize(v int) string {
	switch {
	case v != 0 && v%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", v>>20)
	case v != 0 && v%1024 == 0:
		return fmt.Sprintf("%dKiB", v>>10)
	}
	return strconv.Itoa(v)
}

// patternList names every pattern, sorted, for error messages.
func patternList() string {
	names := make([]string, 0, len(patterns))
	for p := range patterns {
		names = append(names, string(p))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// SpecSyntax is a one-line usage hint for surfaces that accept workload
// names ("wmx explore -workloads", workloads.ByName errors).
func SpecSyntax() string {
	return SpecPrefix + "<pattern>[,fp=SIZE][,stride=N][,bias=PCT][,phase=N][,n=N][,seed=N]  patterns: " + patternList()
}

// Describe returns the one-line description of a pattern ("" if unknown).
func Describe(p Pattern) string { return patterns[p].desc }
