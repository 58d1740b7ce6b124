package sim

import (
	"context"
	"fmt"
	"math/bits"

	"waymemo/internal/asm"
	"waymemo/internal/mem"
	"waymemo/internal/trace"
)

// word is the instruction size of both ISAs.
const word = 4

// CheckPacketBytes reports whether pb is a usable fetch-packet size: zero
// (the ISA's default) or a power of two of at least 4 bytes. The front end
// masks the PC with pb-1, so any other size would silently corrupt packet
// boundaries.
func CheckPacketBytes(pb uint32) error {
	if pb != 0 && (pb < 4 || pb&(pb-1) != 0) {
		return fmt.Errorf("sim: fetch packet of %d bytes is not a power of two >= 4", pb)
	}
	return nil
}

// front is the state both cores' interpreter loops share: the predecoded
// text, the fetch packet and the attached stager, into whose current block
// the loops write each fetch and data event in place. The loops do the
// per-instruction work inline; front keeps what runs once per run, per
// fetch run or per trap out of line. I is the ISA's decoded instruction.
type front[I any] struct {
	st              *trace.Stager
	fetchOn, dataOn bool // the streams st consumes; no event is built for the other

	pb    uint32 // the resolved fetch-packet size, valid once ready
	ready bool

	// The current packet (noPacket before the first fetch) and, when
	// control did not fall through, how it arrived.
	cur       uint32
	shift     uint8             // log2(pb), valid once ready
	run       *trace.FetchEvent // the stager slot of the open run; nil before the first
	pendKind  trace.ControlKind
	pendBase  uint32
	pendDisp  int32
	pendValid bool

	text  table[I] // the predecoded text
	spill I        // a word outside text, decoded from memory
}

// attach routes the core's events into st; nil detaches.
func (f *front[I]) attach(st *trace.Stager) {
	f.st, f.run = st, nil
	f.fetchOn, f.dataOn = st.Streams()
}

// gate runs before a core's first instruction and at an unaligned PC: it
// validates the packet size once, then the PC.
func (f *front[I]) gate(pc, packetBytes, defaultPB uint32) error {
	if !f.ready {
		if err := CheckPacketBytes(packetBytes); err != nil {
			return err
		}
		f.pb = packetBytes
		if f.pb == 0 {
			f.pb = defaultPB
		}
		f.shift = uint8(bits.TrailingZeros32(f.pb))
		f.cur = noPacket
		f.ready = true
	}
	if pc%word != 0 {
		return fmt.Errorf("sim: unaligned PC 0x%x", pc)
	}
	return nil
}

// decodeMem decodes the word at pc from memory, for a pc outside the text
// table or in one of its gaps. The result lives until the next call.
func (f *front[I]) decodeMem(pc uint32, m *mem.Memory, dec func(uint32) I) *I {
	f.spill = dec(m.ReadWord(pc))
	return &f.spill
}

// noPacket is the current packet before the first fetch: packets are at
// least 4-byte aligned, so it never equals one.
const noPacket = 1

// stage takes the next fetch slot for a run that starts at packet,
// classified by how control arrived. The first fetch reports packet 0 as
// its predecessor.
func (f *front[I]) stage(packet, prev uint32) {
	ev := f.st.NextFetch()
	f.run = ev
	first := prev == noPacket
	if first {
		prev = 0
	}
	ev.Addr, ev.Prev, ev.First, ev.Run, ev.Shift = packet, prev, first, 0, f.shift
	if f.pendValid {
		ev.Kind, ev.Base, ev.Disp = f.pendKind, f.pendBase, f.pendDisp
	} else {
		ev.Kind, ev.Base, ev.Disp = trace.KindSeq, prev, int32(f.pb)
	}
}

// pend records how control leaves the current instruction, for the next
// packet's fetch event.
func (f *front[I]) pend(kind trace.ControlKind, base uint32, disp int32) {
	f.pendKind, f.pendBase, f.pendDisp, f.pendValid = kind, base, disp, true
}

// branch pends a taken PC-relative branch or jump at pc and returns its
// target.
func (f *front[I]) branch(pc uint32, disp int32) uint32 {
	f.pend(trace.KindBranch, pc, disp)
	return pc + uint32(disp)
}

// inText reports whether any byte of the size-byte store at addr lies in
// the program's text, which stores may not modify. Accesses are aligned, so
// addr+size-1 does not wrap.
func (f *front[I]) inText(addr, size uint32) bool {
	last := addr + size - 1
	for _, r := range f.text.ranges {
		if addr < r[1] && last >= r[0] {
			return true
		}
	}
	return false
}

// unaligned is the fault of a size-byte access at a misaligned addr.
func unaligned(size, addr uint32) error {
	return fmt.Errorf("unaligned %d-byte access at 0x%x", size, addr)
}

// storeIntoText is the fault of a store that overlaps the text at addr.
func storeIntoText(addr uint32) error {
	return fmt.Errorf("store into text at 0x%x (self-modifying code is not supported)", addr)
}

// load copies the program image into m and decodes the program's text
// from it with dec, with gap in the slots between text ranges.
func (f *front[I]) load(p *asm.Program, m *mem.Memory, dec func(uint32) I, gap I) {
	for _, seg := range p.Segments {
		m.LoadImage(seg.Addr, seg.Data)
	}
	f.text = buildTable(p, m, dec, gap)
}

// gapOp is the opcode of a table slot between text ranges, such as a .word
// among the instructions. No word decodes to it on either ISA (FRVL opcodes
// have 6 bits, RV32 ones 7), so it costs the interpreter no compare on the
// hot path: its opcode switch reaches gapOp only in its default case, which
// decodes the slot's word from memory. Stores may write a gap, so a decode
// taken before the run would be stale.
const gapOp = 0xFF

// table is the decode of a program's text: a PC-indexed instruction table
// over the span of all text ranges, with gap in the slots that no range
// covers. Programs cannot modify their text (stores into it are rejected),
// so the text is decoded once per load, not once per dynamic instruction.
type table[I any] struct {
	base   uint32
	instrs []I
	ranges [][2]uint32
}

// buildTable decodes the contiguous span covering all text ranges from m,
// which holds the program's image, and fills the slots between ranges
// with gap.
func buildTable[I any](p *asm.Program, m *mem.Memory, dec func(uint32) I, gap I) table[I] {
	t := table[I]{ranges: p.TextRanges}
	if len(p.TextRanges) == 0 {
		return t
	}
	lo, hi := p.TextRanges[0][0], p.TextRanges[0][1]
	for _, r := range p.TextRanges[1:] {
		lo, hi = min(lo, r[0]), max(hi, r[1])
	}
	if hi-lo > 1<<24 { // refuse absurd spans
		return t
	}
	t.base = lo
	t.instrs = make([]I, (hi-lo)/word)
	for i := range t.instrs {
		t.instrs[i] = gap
	}
	for _, r := range p.TextRanges {
		for k := (r[0] - lo + word - 1) / word; k < uint32(len(t.instrs)) && lo+k*word < r[1]; k++ {
			t.instrs[k] = dec(m.ReadWord(lo + k*word))
		}
	}
	return t
}

// core is what runCore drives. steps executes up to n instructions,
// stopping early at a halt or an error, and returns how many retired.
type core interface {
	steps(n uint64) (uint64, error)
	halted() bool
	pc() uint32
}

// ctxCheckEvery is how many instructions run between context checks —
// coarse enough to stay off the simulator's hot path, fine enough that
// cancellation lands within milliseconds.
const ctxCheckEvery = 1 << 20

// runCore is both cores' RunContext. It executes c until it halts, fails or
// ctx ends; a core that retires maxInstrs instructions without halting is
// reported as a runaway. A program that halts on its last budgeted
// instruction stays within budget.
func runCore(ctx context.Context, c core, maxInstrs uint64) error {
	for left := maxInstrs; !c.halted(); {
		if left == 0 {
			return fmt.Errorf("sim: instruction budget %d exhausted at pc=0x%x", maxInstrs, c.pc())
		}
		n, err := c.steps(min(left, ctxCheckEvery))
		if err != nil {
			return err
		}
		left -= n
		if err := ctx.Err(); err != nil && !c.halted() {
			return err
		}
	}
	return nil
}
