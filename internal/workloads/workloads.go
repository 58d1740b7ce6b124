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

// Workload is one benchmark program.
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
// and every caller shares the same read-only *asm.Program (which is also
// what lets the simulator share one predecoded instruction table across
// runs). Callers must not mutate the returned program.
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
// fetch-packet size. Once the run and its check have succeeded it flushes
// st, so every sink has the whole of both streams when it returns; a
// failed run's tails are dropped with it.
func RunPacketContext(ctx context.Context, w Workload, st *trace.Stager, packetBytes uint32) (*sim.CPU, error) {
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

// All returns the seven benchmarks in the order the paper's figures use.
func All() []Workload {
	return []Workload{
		DCT(), FFT(), Dhrystone(), Whetstone(), Compress(), JPEGEnc(), MPEG2Enc(),
	}
}

// ByName finds a workload by its figure label, compiles a synthetic
// spec ("synth:pchase,fp=64KiB,seed=7"; see internal/synth) into one, or
// resolves an "rv32:" prefixed name ("rv32:DCT", "rv32:synth:...") to the
// RV32 port of the kernel.
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
		names := make([]string, 0, len(RV32All()))
		for _, w := range RV32All() {
			if strings.EqualFold(w.Name, name) {
				return w, nil
			}
			names = append(names, w.Name)
		}
		sort.Strings(names)
		return Workload{}, fmt.Errorf("workloads: unknown RV32 benchmark %q (valid: %s; or %ssynth:...)",
			name, strings.Join(names, ", "), RV32Prefix)
	}
	names := make([]string, 0, 7)
	for _, w := range All() {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return Workload{}, fmt.Errorf("workloads: unknown benchmark %q (valid: %s; or a synthetic spec: %s)",
		name, strings.Join(names, ", "), synth.SpecSyntax())
}

// --- assembly data-emission helpers ---

func dirWords(label string, vals []int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", label)
	for i := 0; i < len(vals); i += 8 {
		end := min(i+8, len(vals))
		b.WriteString("\t.word ")
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", vals[j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func dirHalves(label string, vals []int16) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", label)
	for i := 0; i < len(vals); i += 12 {
		end := min(i+12, len(vals))
		b.WriteString("\t.half ")
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", vals[j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func dirBytes(label string, vals []byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", label)
	for i := 0; i < len(vals); i += 16 {
		end := min(i+16, len(vals))
		b.WriteString("\t.byte ")
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", vals[j])
		}
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
