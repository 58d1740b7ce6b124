package sim

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"waymemo/internal/asm"
	"waymemo/internal/trace"
)

// testCore is the surface both cores share, for tests that run each ISA
// the same way.
type testCore interface {
	core
	Step() error
	RunContext(context.Context, uint64) error
	Attach(*trace.Stager)
	LoadProgram(*asm.Program, uint32)
}

// isaCase builds one ISA's core at a fetch-packet size and assembles its
// programs.
type isaCase struct {
	name     string
	newCore  func(packetBytes uint32) testCore
	assemble func(...string) (*asm.Program, error)
	// threeInstrs is a program of exactly three instructions, the last of
	// which halts.
	threeInstrs string
	// reference wraps a core of this ISA as its reference core.
	reference func(testCore) refCore
}

var isaCases = []isaCase{
	{
		name: "frvl",
		newCore: func(pb uint32) testCore {
			c := New()
			c.PacketBytes = pb
			return c
		},
		assemble:  asm.Assemble,
		reference: func(c testCore) refCore { return refCPU{c.(*CPU)} },
		threeInstrs: `
	.org 0x10000
main:	addi r1, r0, 1
	addi r2, r0, 2
	halt
`,
	},
	{
		name: "rv32",
		newCore: func(pb uint32) testCore {
			c := NewRV32()
			c.PacketBytes = pb
			return c
		},
		assemble:  asm.AssembleRV32,
		reference: func(c testCore) refCore { return refRV32{c.(*RV32CPU)} },
		threeInstrs: `
	.org 0x10000
_start:	addi a0, zero, 1
	addi a1, zero, 2
	ebreak
`,
	},
}

// snapshot renders a core's architectural state and counters.
func snapshot(c testCore) string {
	switch c := c.(type) {
	case *CPU:
		return fmt.Sprintf("regs=%v fregs=%v pc=%#x halted=%v cycles=%d instrs=%d console=%q",
			c.Regs, c.FRegs, c.PC, c.Halted, c.Cycles, c.Instrs, c.Console)
	case *RV32CPU:
		return fmt.Sprintf("regs=%v pc=%#x halted=%v cycles=%d instrs=%d console=%q",
			c.Regs, c.PC, c.Halted, c.Cycles, c.Instrs, c.Console)
	}
	panic("unknown core")
}

// TestRunBudgetHaltOnLastInstruction: a program that halts on its last
// budgeted instruction is within budget on both ISAs; one instruction
// fewer is a runaway.
func TestRunBudgetHaltOnLastInstruction(t *testing.T) {
	for _, ic := range isaCases {
		p, err := ic.assemble(ic.threeInstrs)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			budget uint64
			ok     bool
		}{{2, false}, {3, true}, {4, true}} {
			c := ic.newCore(0)
			c.LoadProgram(p, stackTop)
			err := c.RunContext(context.Background(), tc.budget)
			if tc.ok && (err != nil || !c.halted()) {
				t.Errorf("%s budget %d: err %v, halted %v; want a clean halt", ic.name, tc.budget, err, c.halted())
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "budget 2 exhausted")) {
				t.Errorf("%s budget %d: err %v, want the budget exhausted", ic.name, tc.budget, err)
			}
		}
	}
}

// TestPacketBytesValidation: a fetch-packet size that is not zero or a
// power of two of at least 4 bytes is rejected before the first
// instruction, by Step and by RunContext alike, on both ISAs.
func TestPacketBytesValidation(t *testing.T) {
	for _, ic := range isaCases {
		p, err := ic.assemble(ic.threeInstrs)
		if err != nil {
			t.Fatal(err)
		}
		for _, pb := range []uint32{2, 3, 6, 12} {
			if CheckPacketBytes(pb) == nil {
				t.Errorf("CheckPacketBytes(%d) accepted", pb)
			}
			c := ic.newCore(pb)
			c.LoadProgram(p, stackTop)
			if err := c.RunContext(context.Background(), 10); err == nil || !strings.Contains(err.Error(), "power of two") {
				t.Errorf("%s packet %d: RunContext err %v", ic.name, pb, err)
			}
			c = ic.newCore(pb)
			c.LoadProgram(p, stackTop)
			if err := c.Step(); err == nil {
				t.Errorf("%s packet %d: Step accepted", ic.name, pb)
			}
			if s := snapshot(c); !strings.Contains(s, "cycles=0 instrs=0") {
				t.Errorf("%s packet %d: ran before rejecting: %s", ic.name, pb, s)
			}
		}
		for _, pb := range []uint32{0, 4, 8, 16, 32} {
			if err := CheckPacketBytes(pb); err != nil {
				t.Errorf("CheckPacketBytes(%d): %v", pb, err)
			}
			c := ic.newCore(pb)
			c.LoadProgram(p, stackTop)
			if err := c.RunContext(context.Background(), 10); err != nil || !c.halted() {
				t.Errorf("%s packet %d: err %v, halted %v", ic.name, pb, err, c.halted())
			}
		}
	}
}

// fuzzTextBase is where FuzzSimulate places its text segment.
const fuzzTextBase = 0x10000

// fuzzSeeds are small programs of each ISA whose text words seed
// FuzzSimulate with loops, calls, loads and stores.
var fuzzSeeds = []struct {
	isa int // index into isaCases
	src string
}{
	{0, `
	.org 0x10000
main:	addi r1, r0, 5
	la   r4, buf
loop:	lw   r2, 0(r4)
	add  r2, r2, r1
	sw   r2, 4(r4)
	jal  fn
	addi r1, r1, -1
	bne  r1, r0, loop
	halt
fn:	sb   r1, 9(r4)
	ret
buf:	.word 1, 2, 3
`},
	{1, `
	.org 0x10000
_start:	addi a0, zero, 5
	la   a2, buf
loop:	lw   a1, 0(a2)
	add  a1, a1, a0
	sw   a1, 4(a2)
	jal  fn
	addi a0, a0, -1
	bnez a0, loop
	ebreak
fn:	sb   a0, 9(a2)
	ret
buf:	.word 1, 2, 3
`},
}

// fuzzProgram places FuzzSimulate's text at fuzzTextBase, or one word
// past it when bit 0 of layout is set, so that an 8-byte store at
// fuzzTextBase straddles the text's start. layout>>1, when nonzero and
// inside the text, is the index of a word left out of the text ranges: a
// gap, which stores may write.
func fuzzProgram(text []byte, layout uint8) *asm.Program {
	start := uint32(fuzzTextBase) + uint32(layout&1)*word
	end := start + uint32(len(text))
	ranges := [][2]uint32{{start, end}}
	if g := uint32(layout >> 1); g != 0 && g*word < uint32(len(text)) {
		gap := start + g*word
		ranges = [][2]uint32{{start, gap}}
		if gap+word < end {
			ranges = append(ranges, [2]uint32{gap + word, end})
		}
	}
	return &asm.Program{
		Entry:      start,
		Segments:   []asm.Segment{{Addr: start, Data: text}},
		TextRanges: ranges,
	}
}

// fuzzLayout returns the text and layout under which fuzzProgram places
// an assembled program as it was assembled, or false if it cannot.
func fuzzLayout(p *asm.Program) ([]byte, uint8, bool) {
	if len(p.Segments) != 1 {
		return nil, 0, false
	}
	seg := p.Segments[0]
	var layout uint8
	switch seg.Addr {
	case fuzzTextBase:
	case fuzzTextBase + word:
		layout = 1
	default:
		return nil, 0, false
	}
	if r := p.TextRanges; len(r) == 2 && r[0][0] == seg.Addr && r[1][0] == r[0][1]+word {
		g := (r[0][1] - seg.Addr) / word
		if g >= 128 {
			return nil, 0, false
		}
		layout |= uint8(g) << 1
	}
	return seg.Data, layout, true
}

// FuzzSimulate runs arbitrary 32-bit words as a text segment on each ISA
// under a small budget, with the text's start and one gap word placed by
// layout (fuzzProgram). Nothing may panic, and both RunContext and
// stepping with Step until a halt, an error or the budget — then flushing —
// must leave the reference core's captured events (the WMTRACE4 bytes, so
// both streams), architectural state and counters, and error. The fetch
// runs hold one packet per cycle. The seeds are small programs of each
// ISA, every trap program, the straddling store and the gap programs.
func FuzzSimulate(f *testing.F) {
	for _, s := range fuzzSeeds {
		p, err := isaCases[s.isa].assemble(s.src)
		if err != nil {
			f.Fatal(err)
		}
		for _, seg := range p.Segments {
			if seg.Addr == fuzzTextBase {
				f.Add(seg.Data, uint8(0), uint8(0))
				f.Add(seg.Data, uint8(2), uint8(0))
			}
		}
	}
	for _, tp := range trapPrograms {
		p, err := isaCases[tp.isa].assemble(tp.src)
		if err != nil {
			f.Fatal(err)
		}
		text, layout, ok := fuzzLayout(p)
		if !ok {
			f.Fatalf("%s: cannot place %q as a fuzz input", isaCases[tp.isa].name, tp.name)
		}
		f.Add(text, uint8(0), layout)
	}
	f.Add([]byte{0, 0, 0, 0}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, text []byte, packetLog, layout uint8) {
		text = text[:len(text)&^3]
		if len(text) == 0 || len(text) > 4096 {
			return
		}
		const budget = 512
		pb := uint32(0)
		if packetLog%4 != 0 {
			pb = 2 << (packetLog % 4) // 4, 8 or 16 bytes
		}
		ctx := context.Background()
		for _, ic := range isaCases {
			p := fuzzProgram(text, layout)
			ref := ic.newCore(pb)
			refCap, refErr := captured(t, ref, p, func() error {
				return runCore(ctx, ic.reference(ref), budget)
			})
			ran := ic.newCore(pb)
			runCap, runErr := captured(t, ran, p, func() error { return ran.RunContext(ctx, budget) })
			stepped := ic.newCore(pb)
			stepCap, stepErr := captured(t, stepped, p, func() error {
				for n := 0; !stepped.halted(); n++ {
					if n == budget {
						return fmt.Errorf("sim: instruction budget %d exhausted at pc=0x%x", budget, stepped.pc())
					}
					if err := stepped.Step(); err != nil {
						return err
					}
				}
				return nil
			})
			tables.Delete(tableKey{p, ic.name})

			for _, got := range []struct {
				how     string
				c       testCore
				capture []byte
				err     error
			}{{"RunContext", ran, runCap, runErr}, {"Step", stepped, stepCap, stepErr}} {
				if fmt.Sprint(got.err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: %s err %v, reference err %v", ic.name, got.how, got.err, refErr)
				}
				if a, b := snapshot(got.c), snapshot(ref); a != b {
					t.Fatalf("%s: state diverged:\n%-10s %s\nreference  %s", ic.name, got.how, a, b)
				}
				if !bytes.Equal(got.capture, refCap) {
					t.Fatalf("%s: %s capture diverged from the reference", ic.name, got.how)
				}
			}
			// One packet per cycle, every packet's prev the packet before it.
			buf, err := trace.ReadBuffer(bytes.NewReader(runCap))
			if err != nil {
				t.Fatal(err)
			}
			pkts := packets(buf.Fetches())
			if uint64(len(pkts)) != cycles(ran) {
				t.Fatalf("%s: %d fetch packets in %d runs for %d cycles", ic.name, len(pkts), buf.NumFetches(), cycles(ran))
			}
			for i := 1; i < len(pkts); i++ {
				if pkts[i].Prev != pkts[i-1].Addr || pkts[i].First {
					t.Fatalf("%s: packet %d %+v after %+v", ic.name, i, pkts[i], pkts[i-1])
				}
			}
		}
	})
}

// cycles returns a core's cycle counter.
func cycles(c testCore) uint64 {
	switch c := c.(type) {
	case *CPU:
		return c.Cycles
	case *RV32CPU:
		return c.Cycles
	}
	panic("unknown core")
}

// instrs returns a core's retired-instruction counter.
func instrs(c testCore) uint64 {
	switch c := c.(type) {
	case *CPU:
		return c.Instrs
	case *RV32CPU:
		return c.Instrs
	}
	panic("unknown core")
}

// TestFetchRuns pins how the front end stages runs: a taken jump to the
// very next packet starts a run of its own, as a KindBranch head, though
// its packet is where falling through would have led; straight-line code
// then extends that run, and a run of MaxRun+1 packets is full, so the
// next fall-through heads a new run as a KindSeq packet based on the one
// before it. The stager's blocks of 1024 events hold many runs, so a run
// also crosses no block here; TestLiveBlocksMatchReplayAndPerEvent covers
// the block edges.
func TestFetchRuns(t *testing.T) {
	const nops = 600
	src := "\t.org 0x10000\nmain:\tnop\n\tj next\nnext:\n" + strings.Repeat("\tnop\n", nops) + "\thalt\n"
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	st := trace.NewCapture(&buf)
	c := New()
	c.Attach(st)
	c.LoadProgram(p, stackTop)
	if err := c.Run(10 * nops); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	// Packet 0x10000 holds nop and j; the 601 instructions from 0x10008
	// fill 301 packets: a run of 256 and one of 45.
	want := []trace.FetchEvent{
		{Addr: 0x10000, First: true, Disp: 8, Shift: 3},
		{Addr: 0x10008, Prev: 0x10000, Base: 0x10004, Disp: 4, Kind: trace.KindBranch, Run: trace.MaxRun, Shift: 3},
		{Addr: 0x10808, Prev: 0x10800, Base: 0x10800, Disp: 8, Run: 44, Shift: 3},
	}
	if got := buf.Fetches(); !slices.Equal(got, want) {
		t.Fatalf("runs:\n got %+v\nwant %+v", got, want)
	}
	if n := len(packets(buf.Fetches())); uint64(n) != c.Cycles {
		t.Fatalf("%d packets for %d cycles", n, c.Cycles)
	}
}
