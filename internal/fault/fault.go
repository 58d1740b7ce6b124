// Package fault is the deterministic, seedable fault-injection layer the
// serve daemon's robustness contract is enforced with: a parsed Spec names
// probabilistic faults at named sites (short reads and writes, torn writes,
// fsync/rename failures, ENOSPC, latency spikes, connection drops), an
// Injector draws them from a seeded PRNG, and the FS file-op shim plus the
// HTTP Middleware apply them to real store/trace I/O and real requests.
//
// The injection sites form a small hierarchy, matched by rule prefix:
//
//	io.result.read     result-store entry reads (serve.Store / explore.DirCache)
//	io.result.write    result-store atomic writes
//	io.result.delete   result-store evictions
//	io.trace.read      trace-spill sidecar + trace-file reads (suite.TraceCache)
//	io.trace.write     trace-spill atomic writes
//	io.journal.read    sweep-journal boot replay read (serve)
//	io.journal.append  sweep-journal fsynced record appends
//	io.journal.compact sweep-journal atomic compaction rewrites
//	http               every API request (latency, drop); /healthz and /readyz
//	                   are exempt so probes always tell the truth
//
// so a rule site of "io" covers every file operation, "io.trace" both trace
// sites, "io.journal" the whole journal, and "*" everything.
//
// The layer is opt-in and free when off: a nil *Injector disables every
// check (the FS zero value is a direct passthrough to the os package), so
// production daemons pay one nil comparison per file operation.
//
// The contract it exists to test, inherited from the paper's way-memoization
// claim (results never change, only cost): under any injected fault the
// daemon may be slower or return an error, but every result it does complete
// must be bit-identical to a fault-free run.
package fault

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Kind enumerates the injectable fault kinds.
type Kind uint8

const (
	// KindErr fails the operation with a generic injected I/O error.
	KindErr Kind = iota + 1
	// KindENOSPC fails a write with a wrapped syscall.ENOSPC.
	KindENOSPC
	// KindShortRead silently returns a truncated prefix of the file — a
	// torn read. CRC-validated formats must reject it and degrade to a
	// miss, never to wrong results.
	KindShortRead
	// KindShortWrite simulates a writer killed mid-write: the atomic-write
	// temp file is truncated and LEFT BEHIND, and the operation errors.
	// Startup recovery must sweep the leavings.
	KindShortWrite
	// KindTornWrite simulates a crash after rename but before the data hit
	// the platter (no fsync): the destination file holds only a prefix and
	// the operation reports success. The nastiest case — nothing errors
	// until the file is read back.
	KindTornWrite
	// KindRename fails the atomic-write rename, leaving the fully-written
	// temp file behind.
	KindRename
	// KindFsync fails the pre-rename fsync; the write is aborted.
	KindFsync
	// KindLatency delays the operation by a uniform draw in (0, delay].
	KindLatency
	// KindDrop aborts an HTTP request's connection mid-flight.
	KindDrop
)

var kindNames = map[Kind]string{
	KindErr:        "err",
	KindENOSPC:     "enospc",
	KindShortRead:  "shortread",
	KindShortWrite: "shortwrite",
	KindTornWrite:  "tornwrite",
	KindRename:     "rename",
	KindFsync:      "fsync",
	KindLatency:    "latency",
	KindDrop:       "drop",
}

// String returns the spec-grammar name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func kindByName(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return k, true
		}
	}
	return 0, false
}

// Rule is one injection clause: at sites matching Site, inject Kind with
// probability Prob per eligible operation. Delay parameterizes KindLatency.
type Rule struct {
	Site  string
	Kind  Kind
	Prob  float64
	Delay time.Duration
}

// matches reports whether the rule covers site: exact, "*", or a
// dot-hierarchy prefix ("io" covers "io.trace.write").
func (r Rule) matches(site string) bool {
	return r.Site == "*" || r.Site == site || strings.HasPrefix(site, r.Site+".")
}

// Spec is a parsed fault specification: a PRNG seed plus an ordered rule
// list. The grammar, clauses separated by ';' or ',':
//
//	seed=<uint>
//	<site>:<kind>:<prob>           e.g. io:err:0.05  http:drop:0.01
//	<site>:latency:<prob>:<delay>  e.g. io:latency:0.1:2ms
//
// Sites are matched hierarchically (see the package comment's table); kinds
// are err, enospc, shortread, shortwrite, tornwrite, rename, fsync, latency
// and drop. Rules are evaluated in spec order per operation; the first
// non-latency hit wins, latency hits accumulate with the rest.
type Spec struct {
	Seed  uint64
	Rules []Rule
}

// ParseSpec parses the spec grammar above. An empty string is a valid spec
// with no rules (an injector over it never fires).
func ParseSpec(s string) (*Spec, error) {
	sp := &Spec{Seed: 1}
	for _, clause := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == ',' }) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
			sp.Seed = seed
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("fault: bad clause %q (want site:kind:prob[:delay])", clause)
		}
		if parts[0] == "" {
			return nil, fmt.Errorf("fault: empty site in %q", clause)
		}
		kind, ok := kindByName(parts[1])
		if !ok {
			return nil, fmt.Errorf("fault: unknown kind %q in %q", parts[1], clause)
		}
		prob, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || !(prob >= 0 && prob <= 1) { // NaN fails both
			return nil, fmt.Errorf("fault: bad probability %q in %q (want [0,1])", parts[2], clause)
		}
		r := Rule{Site: parts[0], Kind: kind, Prob: prob}
		if len(parts) == 4 {
			if kind != KindLatency {
				return nil, fmt.Errorf("fault: delay parameter on non-latency clause %q", clause)
			}
			d, err := time.ParseDuration(parts[3])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("fault: bad delay %q in %q", parts[3], clause)
			}
			r.Delay = d
		} else if kind == KindLatency {
			return nil, fmt.Errorf("fault: latency clause %q needs a delay (site:latency:prob:5ms)", clause)
		}
		sp.Rules = append(sp.Rules, r)
	}
	return sp, nil
}

// String renders the spec back in its own grammar.
func (sp *Spec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", sp.Seed)}
	for _, r := range sp.Rules {
		c := fmt.Sprintf("%s:%s:%g", r.Site, r.Kind, r.Prob)
		if r.Kind == KindLatency {
			c += ":" + r.Delay.String()
		}
		parts = append(parts, c)
	}
	return strings.Join(parts, ";")
}

// Error is an injected failure. errors.Is(err, ErrInjected) identifies any
// injected error; an injected ENOSPC additionally matches syscall.ENOSPC so
// code that special-cases disk-full sees the real sentinel.
type Error struct {
	Site string
	Kind Kind
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s at %s", e.Kind, e.Site)
}

// Is makes injected errors match ErrInjected, and injected ENOSPC match
// syscall.ENOSPC.
func (e *Error) Is(target error) bool {
	if target == ErrInjected {
		return true
	}
	return e.Kind == KindENOSPC && target == syscall.ENOSPC
}

// ErrInjected is the identity of every injected error, for errors.Is.
var ErrInjected = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "fault: injected" }

// Injector draws faults from a Spec with a seeded PRNG and counts what it
// injects. A nil *Injector is valid and never injects, which is how the
// whole layer costs nothing when disabled. Methods are safe for concurrent
// use; with a fixed seed the draw sequence is deterministic for a fixed
// operation order (concurrent operations serialize on an internal lock, so
// cross-goroutine interleaving is scheduler-dependent — tests that need
// exact faults use probability-1 rules).
type Injector struct {
	spec *Spec

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]int64
}

// New builds an injector over the spec. A nil or empty spec yields a nil
// injector (fully disabled).
func New(sp *Spec) *Injector {
	if sp == nil || len(sp.Rules) == 0 {
		return nil
	}
	return &Injector{
		spec:   sp,
		rng:    rand.New(rand.NewPCG(sp.Seed, sp.Seed^0x9e3779b97f4a7c15)),
		counts: map[string]int64{},
	}
}

// NewFromString parses a spec string and builds its injector; an empty
// string returns (nil, nil) — injection off.
func NewFromString(s string) (*Injector, error) {
	sp, err := ParseSpec(s)
	if err != nil {
		return nil, err
	}
	return New(sp), nil
}

// roll evaluates the rules for one operation at site, restricted to the
// kinds the operation can express. Latency hits accumulate into delay and
// evaluation continues; the first other hit becomes the injected kind and
// evaluation stops. kind 0 means no fault.
func (in *Injector) roll(site string, eligible ...Kind) (kind Kind, delay time.Duration) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.spec.Rules {
		if !r.matches(site) || !kindIn(r.Kind, eligible) {
			continue
		}
		if in.rng.Float64() >= r.Prob {
			continue
		}
		in.counts[site+":"+r.Kind.String()]++
		if r.Kind == KindLatency {
			// Uniform in (0, Delay] so spikes vary in size.
			delay += time.Duration(in.rng.Int64N(int64(r.Delay))) + 1
			continue
		}
		return r.Kind, delay
	}
	return 0, delay
}

func kindIn(k Kind, kinds []Kind) bool {
	for _, e := range kinds {
		if e == k {
			return true
		}
	}
	return false
}

// Counts snapshots how many faults were injected, keyed "site:kind" —
// surfaced by /v1/stats so a chaos run is observable.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total is the total number of injected faults (latency spikes included).
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var t int64
	for _, v := range in.counts {
		t += v
	}
	return t
}

// Describe renders the injector's spec and counts for logs.
func (in *Injector) Describe() string {
	if in == nil {
		return "off"
	}
	counts := in.Counts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "spec %q", in.spec.String())
	for _, k := range keys {
		fmt.Fprintf(&b, ", %s=%d", k, counts[k])
	}
	return b.String()
}
