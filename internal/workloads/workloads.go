// Package workloads contains the seven benchmark programs of the paper's
// evaluation — DCT, FFT, whetstone, dhrystone, compress, jpeg encoder and
// mpeg2 encoder — written in FRVL assembly and validated against Go
// reference implementations of the same algorithms (bit-exact, including
// fixed-point rounding).
//
// The paper ran FR-V binaries under the Softune ISS; these programs fill
// that role for our simulator. What matters for the evaluation is that they
// exercise the same mechanisms: loop nests with small branch offsets,
// call/return flow through the link register, base+displacement data access
// with high tag locality, and realistically sized working sets.
//
// Beyond the paper's seven, FromSpec compiles parameterized synthetic
// workloads (internal/synth) — named access-pattern families with
// footprint, stride, bias, phase and seed knobs — into ordinary Workload
// values, and ByName accepts their "synth:..." spec syntax wherever a
// benchmark name is accepted.
package workloads

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"waymemo/internal/asm"
	"waymemo/internal/isa"
	"waymemo/internal/isa/rv32"
	"waymemo/internal/sim"
	"waymemo/internal/synth"
	"waymemo/internal/trace"
)

// Memory layout shared by all workloads.
const (
	// TextBase is where code is assembled.
	TextBase = 0x00010000
	// DataBase is the start of the data region (16KB-aligned, so data
	// within one 16KB span shares a MAB tag region).
	DataBase = 0x00100000
	// StackTop is the initial stack pointer.
	StackTop = 0x001F0000
)

// DefaultMaxInstrs bounds runaway programs.
const DefaultMaxInstrs = 200_000_000

// ISARV32 is the Workload.ISA value selecting the RV32IM frontend.
const ISARV32 = "rv32"

// RV32Prefix prefixes the names of RV32 workloads ("rv32:DCT",
// "rv32:synth:pchase,..."). The prefix is part of the name everywhere — the
// build memo, trace spill sidecars, explore cache keys — so a kernel and
// its cross-ISA port can never share a cached artifact.
const RV32Prefix = "rv32:"

// Workload is one benchmark program. A workload resolved by name (ByName,
// All, RV32All) is built once per process and shared with every other
// caller, so its Sources must not be modified; copy the slice to edit it.
type Workload struct {
	// Name as used in the paper's figures (e.g. "DCT", "mpeg2enc"). For
	// synthetic workloads it is the canonical spec string. RV32 workloads
	// carry the "rv32:" prefix.
	Name string
	// ISA selects the frontend the sources assemble and execute under:
	// empty for FRVL, ISARV32 for RV32IM.
	ISA string
	// Spec is the canonical synthetic spec this workload was generated
	// from (see FromSpec), empty for the paper benchmarks. It is carried
	// into trace spill sidecars so persisted captures are self-describing.
	Spec string
	// Sources are assembled in order after the shared prologue.
	Sources []string
	// Check validates the halted machine against the Go reference. RV32
	// runs are checked through the same signature: the RV32 machine's
	// memory/console view is presented as a *sim.CPU, so one Check
	// validates a kernel under both ISAs.
	Check func(c *sim.CPU, p *asm.Program) error
	// MaxInstrs overrides DefaultMaxInstrs when non-zero.
	MaxInstrs uint64
}

// DefaultPacketBytes is the packet size a zero PacketBytes resolves to for
// this workload's ISA: FRVL's 8-byte VLIW packet, RV32's 4-byte fetch.
// Cache layers (suite.TraceCache, explore keys) normalize through this so
// "default" never aliases across ISAs.
func (w Workload) DefaultPacketBytes() uint32 {
	if w.ISA == ISARV32 {
		return rv32.PacketBytes
	}
	return isa.PacketBytes
}

// prologue is the shared runtime: entry stub and layout constants.
const prologue = `
	.equ TEXT,  0x10000
	.equ DATA,  0x100000
	.org TEXT
_start:	jal  main
	halt
`

// rv32Prologue is the RV32 runtime stub: same layout constants and entry
// protocol, but the exit is ebreak (the RV32 halt) instead of FRVL's halt.
const rv32Prologue = `
	.equ TEXT,  0x10000
	.equ DATA,  0x100000
	.org TEXT
_start:	jal  main
	ebreak
`

// Prologue returns the shared runtime stub every workload is assembled
// behind (entry jump + layout constants). CLIs that emit a standalone
// program (wmsynth -spec) prepend it so the output assembles as-is.
func Prologue() string { return prologue }

// PrologueRV32 is Prologue for the RV32 frontend.
func PrologueRV32() string { return rv32Prologue }

// prologueSrc is the runtime stub matching the workload's ISA.
func (w Workload) prologueSrc() string {
	if w.ISA == ISARV32 {
		return rv32Prologue
	}
	return prologue
}

// Fingerprint identifies the workload's program content: a hash of the
// name, the shared runtime prologue and every source in assembly order.
// Two Workload values with equal fingerprints assemble to the same image,
// which is what the build memo and the suite's trace spill files key on —
// the prologue is part of the hash precisely so an edit to it invalidates
// persisted trace captures along with everything else.
func (w Workload) Fingerprint() uint64 {
	h := fnv.New64a()
	var n [8]byte
	write := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	write(w.Name)
	write(w.prologueSrc())
	// The ISA tag participates only when set, so every FRVL fingerprint —
	// and with it every persisted spill file and cache key — is unchanged.
	if w.ISA != "" {
		write("isa:" + w.ISA)
	}
	for _, s := range w.Sources {
		write(s)
	}
	return h.Sum64()
}

// buildMemo caches assembled programs per workload fingerprint for the life
// of the process: explore sweeps call Build at every grid point, and the
// sources are identical every time.
var (
	buildMu   sync.Mutex
	buildMemo = map[uint64]*buildEntry{}
)

type buildEntry struct {
	once sync.Once
	prog *asm.Program
	err  error
}

// Build assembles the workload into a program image. Builds are memoized
// per process, keyed by Fingerprint: identical sources are assembled once,
// and every caller shares the same read-only *asm.Program. Callers must
// not mutate the returned program.
func (w Workload) Build() (*asm.Program, error) {
	key := w.Fingerprint()
	buildMu.Lock()
	e := buildMemo[key]
	if e == nil {
		e = new(buildEntry)
		buildMemo[key] = e
	}
	buildMu.Unlock()
	e.once.Do(func() {
		srcs := append([]string{w.prologueSrc()}, w.Sources...)
		var p *asm.Program
		var err error
		if w.ISA == ISARV32 {
			p, err = asm.AssembleRV32(srcs...)
		} else {
			p, err = asm.Assemble(srcs...)
		}
		if err != nil {
			e.err = fmt.Errorf("workload %s: %w", w.Name, err)
			return
		}
		e.prog = p
	})
	return e.prog, e.err
}

// Run assembles and executes the workload with its events staged into st
// (nil runs without events) and validates the result. It returns the CPU
// for inspection.
func Run(w Workload, st *trace.Stager) (*sim.CPU, error) {
	return RunPacketContext(context.Background(), w, st, 0)
}

// RunPacket is Run with an explicit fetch-packet size (0 = the default
// 8-byte VLIW packet); used by the fetch-width ablation.
func RunPacket(w Workload, st *trace.Stager, packetBytes uint32) (*sim.CPU, error) {
	return RunPacketContext(context.Background(), w, st, packetBytes)
}

// RunPacketContext is the most general runner: explicit context and
// fetch-packet size. It ends st on every path, so no sink of st runs once
// it returns: once the run and its check have succeeded it flushes st, so
// every sink has the whole of both streams, and a failed or panicking run
// discards st, dropping its tails.
func RunPacketContext(ctx context.Context, w Workload, st *trace.Stager, packetBytes uint32) (*sim.CPU, error) {
	if st != nil {
		defer st.Discard() // nothing once Flush has ended it
	}
	p, err := w.Build()
	if err != nil {
		return nil, err
	}
	max := w.MaxInstrs
	if max == 0 {
		max = DefaultMaxInstrs
	}
	var c *sim.CPU
	if w.ISA == ISARV32 {
		rc := sim.NewRV32()
		rc.Attach(st)
		rc.PacketBytes = packetBytes
		rc.LoadProgram(p, StackTop)
		err = rc.RunContext(ctx, max)
		c = rc.AsCPU()
	} else {
		c = sim.New()
		c.Attach(st)
		c.PacketBytes = packetBytes
		c.LoadProgram(p, StackTop)
		err = c.RunContext(ctx, max)
	}
	if err == nil && w.Check != nil {
		err = w.Check(c, p)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if st != nil {
		st.Flush()
	}
	return c, nil
}

// named is one entry of a fixed workload table: the name ByName matches
// (case-folded) and the workload, built on first use and shared for the
// life of the process.
type named struct {
	name string
	get  func() Workload
}

// memo puts one workload constructor behind its table name.
func memo(name string, build func() Workload) named {
	return named{name, sync.OnceValue(build)}
}

// paperTable holds the seven benchmarks in the order the paper's figures
// use, rv32Table the named RV32 ports. A table name resolves by lookup and
// generates its sources once per process, however many requests name it;
// synthetic specs are unbounded and generate on every call instead.
var (
	paperTable = [...]named{
		memo("DCT", DCT), memo("FFT", FFT), memo("dhrystone", Dhrystone),
		memo("whetstone", Whetstone), memo("compress", Compress),
		memo("jpeg_enc", JPEGEnc), memo("mpeg2enc", MPEG2Enc),
	}
	rv32Table = [...]named{memo(RV32Prefix+"DCT", RV32DCT)}
)

// sortedNames joins a table's names in sorted order, as ByName's errors
// list them.
func sortedNames(t []named) string {
	names := make([]string, len(t))
	for i, e := range t {
		names[i] = e.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// lookup finds name in t, case-folded.
func lookup(t []named, name string) (Workload, bool) {
	for _, e := range t {
		if strings.EqualFold(e.name, name) {
			return e.get(), true
		}
	}
	return Workload{}, false
}

// values returns a fresh slice of t's workloads.
func values(t []named) []Workload {
	ws := make([]Workload, len(t))
	for i, e := range t {
		ws[i] = e.get()
	}
	return ws
}

// All returns the seven benchmarks in the order the paper's figures use.
// The slice is the caller's; the workloads' Sources are shared.
func All() []Workload { return values(paperTable[:]) }

// ByName finds a workload by its figure label, compiles a synthetic
// spec ("synth:pchase,fp=64KiB,seed=7"; see internal/synth) into one, or
// resolves an "rv32:" prefixed name ("rv32:DCT", "rv32:synth:...") to the
// RV32 port of the kernel. A benchmark name is a table lookup that builds
// its workload once per process; a synthetic spec generates on every call.
func ByName(name string) (Workload, error) {
	if synth.IsSpec(name) {
		sp, err := synth.ParseSpec(name)
		if err != nil {
			return Workload{}, fmt.Errorf("workloads: %w", err)
		}
		return FromSpec(sp)
	}
	if rest, ok := strings.CutPrefix(name, RV32Prefix); ok {
		if synth.IsSpec(rest) {
			sp, err := synth.ParseSpec(rest)
			if err != nil {
				return Workload{}, fmt.Errorf("workloads: %w", err)
			}
			return FromSpecRV32(sp)
		}
		if w, ok := lookup(rv32Table[:], name); ok {
			return w, nil
		}
		return Workload{}, fmt.Errorf("workloads: unknown RV32 benchmark %q (valid: %s; or %ssynth:...)",
			name, sortedNames(rv32Table[:]), RV32Prefix)
	}
	if w, ok := lookup(paperTable[:], name); ok {
		return w, nil
	}
	return Workload{}, fmt.Errorf("workloads: unknown benchmark %q (valid: %s; or a synthetic spec: %s)",
		name, sortedNames(paperTable[:]), synth.SpecSyntax())
}

// --- assembly data-emission helpers ---

func dirWords(label string, vals []int32) string { return dirInts(label, ".word", 8, vals) }

func dirHalves(label string, vals []int16) string { return dirInts(label, ".half", 12, vals) }

func dirBytes(label string, vals []byte) string { return dirInts(label, ".byte", 16, vals) }

// dirInts emits label and vals as decimal directives, perLine values to a
// line.
func dirInts[T int16 | int32 | byte](label, directive string, perLine int, vals []T) string {
	var b strings.Builder
	b.Grow(len(label) + 2 + len(vals)*7)
	b.WriteString(label)
	b.WriteString(":\n")
	var num [11]byte
	for i, v := range vals {
		if i%perLine == 0 {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteByte('\t')
			b.WriteString(directive)
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.Write(strconv.AppendInt(num[:0], int64(v), 10))
	}
	if len(vals) > 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

func dirDoubles(label string, vals []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t.align 8\n%s:\n", label)
	for _, v := range vals {
		fmt.Fprintf(&b, "\t.double %.17g\n", v)
	}
	return b.String()
}

// xorshift32 is the deterministic PRNG used to generate inputs; the Go
// references use the same sequence.
type xorshift32 uint32

func (x *xorshift32) next() uint32 {
	v := uint32(*x)
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*x = xorshift32(v)
	return v
}
