package synth

import (
	"fmt"
	"strconv"
	"strings"
)

// This file compiles a Spec into FRVL assembly plus the expected checksum.
// Every generated program follows one contract:
//
//   - the data region starts at the shared DATA symbol with a synthData
//     array of Footprint bytes, followed by a synthSum result word;
//   - non-pchase patterns first fill synthData with an LCG stream seeded
//     from the spec (so values are deterministic without embedding
//     Footprint bytes of .word directives); pchase instead embeds its
//     permutation table, since a random cycle cannot be rebuilt in-loop;
//   - the main loop runs Accesses iterations, folding every loaded value
//     into a running uint32 checksum, and stores the checksum to synthSum
//     before returning;
//   - Reference simulates the identical arithmetic in Go, so a workload
//     check comparing synthSum against Program.WantSum proves the
//     generated assembly, the assembler and the simulator agree — the
//     same validation contract the seven paper benchmarks follow.
//
// Generation is deterministic: the same normalized Spec always produces
// byte-identical sources (pinned by the golden test in cmd/wmsynth).

// SumSymbol is the label of the checksum result word in every generated
// program.
const SumSymbol = "synthSum"

// dataSymbol is the label of the data array.
const dataSymbol = "synthData"

// LCG constants of the data-fill stream (Numerical Recipes).
const (
	lcgMul = 1664525
	lcgAdd = 1013904223
)

// Program is one generated synthetic workload: its assembly sources and the
// checksum the simulator must produce.
type Program struct {
	// Spec is the normalized spec the program was generated from.
	Spec Spec
	// Sources hold the code and data sections, ready for Workload.Sources.
	Sources []string
	// WantSum is the value synthSum must hold after a run.
	WantSum uint32
}

// seedMix spreads the user seed into the LCG/permutation starting state;
// the |1 keeps it odd and therefore nonzero for the xorshift permutation
// generator.
func (s Spec) seedMix() uint32 { return s.Seed*2654435761 | 1 }

// genDialect captures the tiny surface where generated FRVL and RV32
// assembly differ: the shift-left-immediate mnemonic (padded so operand
// columns align identically) and the scratch register holding loop bounds
// (FRVL's t9 does not exist on RV32; t6 plays its role). Everything else —
// labels, data sections, checksum arithmetic — is shared verbatim, which is
// what makes Reference() a single ground truth for both frontends.
type genDialect struct {
	name string // "" for FRVL; stamped into the header comment otherwise
	slli string // shift-left-immediate mnemonic, column-padded
	t9   string // scratch bound register
}

var (
	frvlDial = genDialect{slli: "sll ", t9: "t9"}
	rv32Dial = genDialect{name: "rv32", slli: "slli", t9: "t6"}
)

// Generate compiles the spec (normalizing it first) into a Program of FRVL
// assembly. Output is byte-stable (pinned by the wmsynth golden test).
func (s Spec) Generate() (Program, error) {
	return s.generate(frvlDial)
}

// GenerateRV32 compiles the spec into RV32 assembly: the identical access
// pattern and checksum contract, validated against the same Reference().
func (s Spec) GenerateRV32() (Program, error) {
	return s.generate(rv32Dial)
}

func (s Spec) generate(d genDialect) (Program, error) {
	n, err := s.Normalized()
	if err != nil {
		return Program{}, err
	}
	var code, data string
	switch n.Pattern {
	case PointerChase:
		code = n.genPointerChase()
		data = n.pchaseData()
	default:
		code = n.genLoop(d)
		data = fmt.Sprintf("\t.org DATA\n%s:\n\t.space %d\n%s:\n\t.space 4\n",
			dataSymbol, n.Footprint, SumSymbol)
	}
	header := fmt.Sprintf("; synth v%d %s\n", GenVersion, n.String())
	if d.name != "" {
		header = fmt.Sprintf("; synth v%d %s %s\n", GenVersion, d.name, n.String())
	}
	return Program{
		Spec:    n,
		Sources: []string{header + code, data},
		WantSum: n.Reference(),
	}, nil
}

// prologueAsm is the shared opening of every generated main: base pointer,
// checksum seed and — for LCG-filled patterns — the data-fill loop.
func (s Spec) prologueAsm(fill bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "main:\tla   s0, %s\n", dataSymbol)
	fmt.Fprintf(&b, "\tli   s5, %d\n", int32(s.seedMix()))
	if fill {
		fmt.Fprintf(&b, "\tli   t1, %d\n", int32(s.seedMix()))
		b.WriteString("\tli   t0, 0\n")
		fmt.Fprintf(&b, "synini:\tli   t2, %d\n", lcgMul)
		b.WriteString("\tmul  t1, t1, t2\n")
		fmt.Fprintf(&b, "\tli   t2, %d\n", lcgAdd)
		b.WriteString("\tadd  t1, t1, t2\n")
		b.WriteString("\tadd  t3, s0, t0\n")
		b.WriteString("\tsw   t1, 0(t3)\n")
		b.WriteString("\taddi t0, t0, 4\n")
		fmt.Fprintf(&b, "\tli   t4, %d\n", s.Footprint)
		b.WriteString("\tblt  t0, t4, synini\n")
	}
	return b.String()
}

// epilogueAsm stores the checksum and returns to the runtime stub.
func epilogueAsm() string {
	return "\tla   t0, " + SumSymbol + "\n\tsw   s5, 0(t0)\n\tret\n"
}

// genLoop emits the main loop of every LCG-filled pattern.
func (s Spec) genLoop(d genDialect) string {
	var b strings.Builder
	b.WriteString(s.prologueAsm(true))
	switch s.Pattern {
	case HotLoop, Streaming:
		b.WriteString("\tli   s1, 0\n")
		fmt.Fprintf(&b, "\tli   s6, %d\n", s.Accesses)
		fmt.Fprintf(&b, "\tli   s7, %d\n", s.Footprint)
		b.WriteString("synlp:\tadd  t0, s0, s1\n")
		b.WriteString("\tlw   t1, 0(t0)\n")
		b.WriteString("\tadd  s5, s5, t1\n")
		if s.Pattern == HotLoop {
			b.WriteString("\taddi t1, t1, 1\n")
			b.WriteString("\tsw   t1, 0(t0)\n")
		}
		fmt.Fprintf(&b, "\taddi s1, s1, %d\n", s.Stride)
		b.WriteString("\tblt  s1, s7, synck\n")
		b.WriteString("\tli   s1, 0\n")
		b.WriteString("synck:\taddi s6, s6, -1\n")
		b.WriteString("\tbnez s6, synlp\n")
	case Branchy:
		b.WriteString("\tli   s1, 0\n")
		fmt.Fprintf(&b, "\tli   s6, %d\n", s.Accesses)
		fmt.Fprintf(&b, "\tli   s7, %d\n", s.Footprint)
		b.WriteString("synlp:\tadd  t0, s0, s1\n")
		b.WriteString("\tlw   t1, 0(t0)\n")
		b.WriteString("\tandi t2, t1, 255\n")
		fmt.Fprintf(&b, "\tli   t3, %d\n", s.biasThreshold())
		b.WriteString("\tbltu t2, t3, syntk\n")
		b.WriteString("\tsub  s5, s5, t1\n")
		b.WriteString("\tj    synnx\n")
		b.WriteString("syntk:\tadd  s5, s5, t1\n")
		b.WriteString("\txori s5, s5, 85\n")
		b.WriteString("synnx:\taddi s1, s1, 4\n")
		b.WriteString("\tblt  s1, s7, synck\n")
		b.WriteString("\tli   s1, 0\n")
		b.WriteString("synck:\taddi s6, s6, -1\n")
		b.WriteString("\tbnez s6, synlp\n")
	case BlockedMatrix:
		side := s.matrixSide()
		fmt.Fprintf(&b, "\tli   s6, %d\n", s.Accesses)
		fmt.Fprintf(&b, "\tli   s7, %d\n", side)
		b.WriteString("synps:\tli   s1, 0\n")
		b.WriteString("synbi:\tli   s2, 0\n")
		b.WriteString("synbj:\tli   s3, 0\n")
		b.WriteString("syni:\tli   s4, 0\n")
		b.WriteString("synj:\tadd  t0, s1, s3\n")
		b.WriteString("\tmul  t0, t0, s7\n")
		b.WriteString("\tadd  t0, t0, s2\n")
		b.WriteString("\tadd  t0, t0, s4\n")
		fmt.Fprintf(&b, "\t%s t0, t0, 2\n", d.slli)
		b.WriteString("\tadd  t0, s0, t0\n")
		b.WriteString("\tlw   t1, 0(t0)\n")
		b.WriteString("\tadd  s5, s5, t1\n")
		b.WriteString("\taddi s6, s6, -1\n")
		b.WriteString("\tbeqz s6, syndn\n")
		b.WriteString("\taddi s4, s4, 1\n")
		fmt.Fprintf(&b, "\tli   %s, 8\n", d.t9)
		fmt.Fprintf(&b, "\tblt  s4, %s, synj\n", d.t9)
		b.WriteString("\taddi s3, s3, 1\n")
		fmt.Fprintf(&b, "\tblt  s3, %s, syni\n", d.t9)
		b.WriteString("\taddi s2, s2, 8\n")
		b.WriteString("\tblt  s2, s7, synbj\n")
		b.WriteString("\taddi s1, s1, 8\n")
		b.WriteString("\tblt  s1, s7, synbi\n")
		b.WriteString("\tj    synps\n")
		b.WriteString("syndn:\n")
	case PhaseSwitch:
		hot := s.hotWindow()
		fmt.Fprintf(&b, "\tli   s6, %d\n", s.Accesses)
		b.WriteString("\tli   s1, 0\n")
		fmt.Fprintf(&b, "synot:\tli   s3, %d\n", s.PhaseLen)
		b.WriteString("\tli   s4, 0\n")
		b.WriteString("synht:\tadd  t0, s0, s4\n")
		b.WriteString("\tlw   t1, 0(t0)\n")
		b.WriteString("\tadd  s5, s5, t1\n")
		b.WriteString("\taddi s4, s4, 4\n")
		fmt.Fprintf(&b, "\tli   %s, %d\n", d.t9, hot)
		fmt.Fprintf(&b, "\tblt  s4, %s, synh2\n", d.t9)
		b.WriteString("\tli   s4, 0\n")
		b.WriteString("synh2:\taddi s6, s6, -1\n")
		b.WriteString("\tbeqz s6, syndn\n")
		b.WriteString("\taddi s3, s3, -1\n")
		b.WriteString("\tbnez s3, synht\n")
		fmt.Fprintf(&b, "\tli   s3, %d\n", s.PhaseLen)
		b.WriteString("synst:\tadd  t0, s0, s1\n")
		b.WriteString("\tlw   t1, 0(t0)\n")
		b.WriteString("\tadd  s5, s5, t1\n")
		fmt.Fprintf(&b, "\taddi s1, s1, %d\n", s.Stride)
		fmt.Fprintf(&b, "\tli   %s, %d\n", d.t9, s.Footprint)
		fmt.Fprintf(&b, "\tblt  s1, %s, syns2\n", d.t9)
		b.WriteString("\tli   s1, 0\n")
		b.WriteString("syns2:\taddi s6, s6, -1\n")
		b.WriteString("\tbeqz s6, syndn\n")
		b.WriteString("\taddi s3, s3, -1\n")
		b.WriteString("\tbnez s3, synst\n")
		b.WriteString("\tj    synot\n")
		b.WriteString("syndn:\n")
	default:
		panic(fmt.Sprintf("synth: genLoop on pattern %q", s.Pattern))
	}
	b.WriteString(epilogueAsm())
	return b.String()
}

// genPointerChase emits the chase loop; the permutation lives in the data
// section.
func (s Spec) genPointerChase() string {
	var b strings.Builder
	b.WriteString(s.prologueAsm(false))
	b.WriteString("\tli   s1, 0\n")
	fmt.Fprintf(&b, "\tli   s6, %d\n", s.Accesses)
	b.WriteString("synlp:\tadd  t0, s0, s1\n")
	b.WriteString("\tlw   s1, 0(t0)\n")
	b.WriteString("\tadd  s5, s5, s1\n")
	b.WriteString("\taddi s6, s6, -1\n")
	b.WriteString("\tbnez s6, synlp\n")
	b.WriteString(epilogueAsm())
	return b.String()
}

// biasThreshold converts the taken percentage to the byte threshold the
// generated code compares against (-1 is the explicit never-taken
// sentinel).
func (s Spec) biasThreshold() int { return max(s.BranchBias, 0) * 256 / 100 }

// matrixSide is blocked's square side in words (Normalized pins the
// footprint to exactly squareSide²·4).
func (s Spec) matrixSide() int { return squareSide(s.Footprint) }

// hotWindow is phase's hot-phase window in bytes.
func (s Spec) hotWindow() int { return min(2048, s.Footprint) }

// chasePermutation builds the node-successor table of a pchase spec: a
// single seeded random cycle over Footprint/Stride nodes, so the chase
// visits every node before repeating.
func (s Spec) chasePermutation() []int {
	n := s.Footprint / s.Stride
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r := xorshift(s.seedMix())
	// Fisher-Yates over order[1:], keeping the chase start at node 0.
	for i := n - 1; i >= 2; i-- {
		j := 1 + int(r.next()%uint32(i))
		order[i], order[j] = order[j], order[i]
	}
	next := make([]int, n)
	for i, node := range order {
		next[node] = order[(i+1)%n]
	}
	return next
}

// pchaseData renders the data section of a pchase spec: a dense word array
// of Footprint bytes whose node slots hold the byte offset of the successor
// node, followed by the checksum word.
func (s Spec) pchaseData() string {
	next := s.chasePermutation()
	words := make([]int32, s.Footprint/4)
	for node, succ := range next {
		words[node*s.Stride/4] = int32(succ * s.Stride)
	}
	var b strings.Builder
	b.Grow(len(words) * 5)
	fmt.Fprintf(&b, "\t.org DATA\n%s:\n", dataSymbol)
	var num [11]byte
	for i, w := range words {
		if i%8 == 0 {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString("\t.word ")
		} else {
			b.WriteString(", ")
		}
		b.Write(strconv.AppendInt(num[:0], int64(w), 10))
	}
	if len(words) > 0 {
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%s:\n\t.space 4\n", SumSymbol)
	return b.String()
}

// Reference computes, in Go, the checksum the generated program must store
// to synthSum — the same uint32 arithmetic, access order and memory
// mutation as the assembly. It is the ground truth Workload.Check compares
// the simulator against.
func (s Spec) Reference() uint32 {
	sum := s.seedMix()
	if s.Pattern == PointerChase {
		next := s.chasePermutation()
		cur := 0
		for i := 0; i < s.Accesses; i++ {
			cur = next[cur/s.Stride] * s.Stride
			sum += uint32(cur)
		}
		return sum
	}
	mem := make([]uint32, s.Footprint/4)
	v := s.seedMix()
	for i := range mem {
		v = v*lcgMul + lcgAdd
		mem[i] = v
	}
	switch s.Pattern {
	case HotLoop, Streaming:
		off := 0
		for i := 0; i < s.Accesses; i++ {
			w := mem[off/4]
			sum += w
			if s.Pattern == HotLoop {
				mem[off/4] = w + 1
			}
			off += s.Stride
			if off >= s.Footprint {
				off = 0
			}
		}
	case Branchy:
		thr := uint32(s.biasThreshold())
		off := 0
		for i := 0; i < s.Accesses; i++ {
			w := mem[off/4]
			if w&255 < thr {
				sum += w
				sum ^= 85
			} else {
				sum -= w
			}
			off += 4
			if off >= s.Footprint {
				off = 0
			}
		}
	case BlockedMatrix:
		side := s.matrixSide()
		rem := s.Accesses
	blocked:
		for {
			for bi := 0; bi < side; bi += 8 {
				for bj := 0; bj < side; bj += 8 {
					for i := 0; i < 8; i++ {
						for j := 0; j < 8; j++ {
							sum += mem[(bi+i)*side+bj+j]
							rem--
							if rem == 0 {
								break blocked
							}
						}
					}
				}
			}
		}
	case PhaseSwitch:
		hot := s.hotWindow()
		rem := s.Accesses
		stream := 0
	phases:
		for {
			for c, off := s.PhaseLen, 0; c > 0; c-- {
				sum += mem[off/4]
				off += 4
				if off >= hot {
					off = 0
				}
				rem--
				if rem == 0 {
					break phases
				}
			}
			for c := s.PhaseLen; c > 0; c-- {
				sum += mem[stream/4]
				stream += s.Stride
				if stream >= s.Footprint {
					stream = 0
				}
				rem--
				if rem == 0 {
					break phases
				}
			}
		}
	default:
		panic(fmt.Sprintf("synth: reference on pattern %q", s.Pattern))
	}
	return sum
}

// xorshift is the deterministic PRNG behind the pchase permutation; state
// must be nonzero.
type xorshift uint32

func (x *xorshift) next() uint32 {
	v := uint32(*x)
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*x = xorshift(v)
	return v
}
