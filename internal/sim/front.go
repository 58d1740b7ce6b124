package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

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

// front is the per-instruction front end both cores share: it holds the
// predecoded text, tracks the fetch packet, and writes each fetch and data
// event straight into the attached stager's current block. I is the ISA's
// decoded instruction.
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

	text  table[I] // the shared predecoded text
	spill I        // a word outside text, decoded from memory
}

// attach routes the core's events into st; nil detaches.
func (f *front[I]) attach(st *trace.Stager) {
	f.st, f.run = st, nil
	f.fetchOn, f.dataOn = st.Streams()
}

// gate runs before every instruction whose PC is unaligned or that is the
// core's first: it validates the packet size once, then the PC.
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

// at returns the predecoded instruction at pc, read in place, or nil
// outside the table (the caller then calls decodeMem). In place is the
// point: a 16-byte instruction returned by value costs a round trip
// through the stack on every instruction — a store of the copy, then loads
// of its fields that wait on store forwarding, the stall
// IController.OnFetchBatch describes — which profiled at a fifth of the
// live suite. at inlines, so a table hit costs one bounds check.
func (f *front[I]) at(pc uint32) *I {
	if i := (pc - f.text.base) / word; i < uint32(len(f.text.instrs)) {
		return &f.text.instrs[i]
	}
	return nil
}

// decodeMem decodes the word at pc from memory, for a pc outside the text
// table. The result lives until the next call.
func (f *front[I]) decodeMem(pc uint32, m *mem.Memory, dec func(uint32) I) *I {
	f.spill = dec(m.ReadWord(pc))
	return &f.spill
}

// noPacket is the current packet before the first fetch: packets are at
// least 4-byte aligned, so it never equals one.
const noPacket = 1

// fetch starts the instruction at pc. Inside the current packet it only
// consumes any pending control kind; a new packet goes out of line.
func (f *front[I]) fetch(pc uint32, cycles *uint64) {
	if pc&^(f.pb-1) != f.cur {
		f.newPacket(pc, cycles)
		return
	}
	f.pendValid = false
}

// newPacket counts a cycle and stages a fetch event for pc's packet,
// classified by how control arrived. A packet that control fell through to
// extends the open run: the stager hands a block over only when its next
// slot is asked for, so the run's slot is still the front's to write. A
// run of MaxRun+1 packets is full, and the next fall-through starts a
// run of its own as a KindSeq packet. The first fetch reports packet 0 as
// its predecessor.
func (f *front[I]) newPacket(pc uint32, cycles *uint64) {
	*cycles++
	packet, prev := pc&^(f.pb-1), f.cur
	if f.fetchOn {
		if r := f.run; r != nil && !f.pendValid && packet == prev+f.pb && r.Run < trace.MaxRun {
			r.Run++
		} else {
			f.stage(packet, prev)
		}
	}
	f.pendValid = false
	f.cur = packet
}

// stage takes the next fetch slot for a run that starts at packet.
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

// data stages one data event.
func (f *front[I]) data(addr, base uint32, disp int32, store bool, size uint8) {
	if f.dataOn {
		ev := f.st.NextData()
		ev.Addr, ev.Base, ev.Disp, ev.Store, ev.Size = addr, base, disp, store, size
	}
}

// inText reports whether addr lies in the program's text, which stores may
// not modify.
func (f *front[I]) inText(addr uint32) bool {
	for _, r := range f.text.ranges {
		if addr >= r[0] && addr < r[1] {
			return true
		}
	}
	return false
}

// load copies the program image into m and attaches the program's shared
// predecoded text, decoded with dec under the ISA's name.
func (f *front[I]) load(p *asm.Program, m *mem.Memory, isa string, dec func(uint32) I) {
	for _, seg := range p.Segments {
		m.LoadImage(seg.Addr, seg.Data)
	}
	f.text = *predecode(p, isa, dec)
}

// table is the immutable decode of a program's text: a PC-indexed
// instruction table over the span of all text ranges. Programs cannot
// modify their text (stores into it are rejected), so one table is shared
// read-only by every core running the program: the text is decoded once
// per process, not once per run or per dynamic instruction.
type table[I any] struct {
	base   uint32
	instrs []I
	ranges [][2]uint32
}

// tables memoizes predecode per program identity and ISA; workloads.Build
// returns the same *asm.Program for a workload within a process.
var tables sync.Map // tableKey -> *table[I]

type tableKey struct {
	p   *asm.Program
	isa string
}

// predecode returns the program's shared instruction table, decoding its
// text with dec on first use.
func predecode[I any](p *asm.Program, isa string, dec func(uint32) I) *table[I] {
	k := tableKey{p, isa}
	if v, ok := tables.Load(k); ok {
		return v.(*table[I])
	}
	v, _ := tables.LoadOrStore(k, buildTable(p, dec))
	return v.(*table[I])
}

// buildTable decodes the contiguous span covering all text ranges.
func buildTable[I any](p *asm.Program, dec func(uint32) I) *table[I] {
	t := &table[I]{ranges: p.TextRanges}
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
	m := mem.New()
	for _, seg := range p.Segments {
		m.LoadImage(seg.Addr, seg.Data)
	}
	t.base = lo
	t.instrs = make([]I, (hi-lo)/word)
	for a := lo; a < hi; a += word {
		t.instrs[(a-lo)/word] = dec(m.ReadWord(a))
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
