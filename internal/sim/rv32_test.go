package sim

import (
	"testing"

	"waymemo/internal/asm"
	"waymemo/internal/isa/rv32"
	"waymemo/internal/trace"
)

// runRV32 assembles and runs an RV32 program to completion.
func runRV32(t *testing.T, src string) *RV32CPU {
	t.Helper()
	c := NewRV32()
	runRV32On(t, c, src)
	return c
}

func runRV32On(t *testing.T, c *RV32CPU, src string) *asm.Program {
	t.Helper()
	p, err := asm.AssembleRV32(src)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(p, 0x8000)
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRV32Arithmetic(t *testing.T) {
	c := runRV32(t, `
	.equ DATA, 0x2000
	.org 0x1000
_start:	li   a0, 7
	li   a1, -3
	mul  a2, a0, a1        ; -21
	div  a3, a1, a0        ; 0
	rem  a4, a1, a0        ; -3
	sub  a5, a0, a1        ; 10
	sra  a6, a1, a0        ; -3 >> 7 = -1
	srl  t0, a1, a0        ; logical
	sltu t1, a0, a1        ; 7 <u -3 (huge) = 1
	slt  t2, a1, a0        ; -3 < 7 = 1
	ebreak
`)
	want := map[uint8]uint32{
		12: ^uint32(20), 13: 0, 14: ^uint32(2),
		15: 10, 16: ^uint32(0), 5: ^uint32(2) >> 7, 6: 1, 7: 1,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", rv32.RegName(r), c.Regs[r], v)
		}
	}
}

// RISC-V division never traps: ÷0 yields all-ones (quotient) / the dividend
// (remainder), and MinInt32 / -1 wraps.
func TestRV32DivisionEdges(t *testing.T) {
	c := runRV32(t, `
	.org 0x1000
_start:	li   a0, 42
	li   a1, 0
	div  a2, a0, a1
	divu a3, a0, a1
	rem  a4, a0, a1
	remu a5, a0, a1
	li   a6, 0x80000000
	li   a7, -1
	div  t0, a6, a7
	rem  t1, a6, a7
	ebreak
`)
	const minInt = uint32(0x80000000)
	want := map[uint8]uint32{
		12: ^uint32(0), 13: ^uint32(0), 14: 42, 15: 42,
		5: minInt, 6: 0,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", rv32.RegName(r), c.Regs[r], v)
		}
	}
}

func TestRV32LoadStoreSignExtension(t *testing.T) {
	c := runRV32(t, `
	.equ DATA, 0x2000
	.org 0x1000
_start:	la   t0, buf
	li   a0, -2
	sb   a0, 0(t0)
	sh   a0, 2(t0)
	sw   a0, 4(t0)
	lb   a1, 0(t0)
	lbu  a2, 0(t0)
	lh   a3, 2(t0)
	lhu  a4, 2(t0)
	lw   a5, 4(t0)
	ebreak
	.org DATA
buf:	.space 16
`)
	want := map[uint8]uint32{
		11: ^uint32(1), 12: 0xFE, 13: ^uint32(1), 14: 0xFFFE, 15: ^uint32(1),
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", rv32.RegName(r), c.Regs[r], v)
		}
	}
}

// The runtime ABI: ecall a7=1 is putchar, a7=93 exits, ebreak halts.
func TestRV32ConsoleAndExit(t *testing.T) {
	c := runRV32(t, `
	.org 0x1000
_start:	li   a7, 1
	li   a0, 'H'
	ecall
	li   a0, 'i'
	ecall
	li   a7, 93
	li   a0, 0
	ecall
	; never reached
	li   a0, 99
	ebreak
`)
	if string(c.Console) != "Hi" {
		t.Fatalf("console = %q, want \"Hi\"", c.Console)
	}
	if !c.Halted || c.Regs[10] != 0 {
		t.Fatalf("halted=%v a0=%d after exit ecall", c.Halted, c.Regs[10])
	}
}

func TestRV32StoreIntoTextRejected(t *testing.T) {
	c := NewRV32()
	p, err := asm.AssembleRV32(`
	.org 0x1000
_start:	la   t0, _start
	sw   zero, 0(t0)
	ebreak
`)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(p, 0x8000)
	if err := c.Run(100); err == nil {
		t.Fatal("store into text succeeded")
	}
}

// The fetch stream is the trace contract: 4-byte packets by default, one
// event per packet transition, classified KindSeq / KindBranch (jal, taken
// branch) / KindLink (return via ra) / KindIndirect (computed jalr), with
// First set only on the reset fetch.
func TestRV32FetchKinds(t *testing.T) {
	var evs []trace.FetchEvent
	c := NewRV32()
	st := trace.NewStager([]trace.SinkPair{{Fetch: trace.FetchFunc(func(ev trace.FetchEvent) { evs = append(evs, ev) })}})
	c.Attach(st)
	runRV32On(t, c, `
	.org 0x1000
_start:	jal  fn                ; KindBranch
	la   t0, last
	jalr t0                ; KindIndirect (link in ra, base t0)
last:	ebreak
fn:	ret                    ; KindLink
`)
	st.Flush()
	evs = packets(evs)
	if len(evs) == 0 || !evs[0].First || evs[0].Addr != 0x1000 {
		t.Fatalf("first fetch = %+v", evs[0])
	}
	var kinds []trace.ControlKind
	for i, ev := range evs {
		if i > 0 && ev.First {
			t.Fatalf("event %d has First set: %+v", i, ev)
		}
		if ev.Addr%4 != 0 {
			t.Fatalf("packet address %#x not 4-byte aligned", ev.Addr)
		}
		kinds = append(kinds, ev.Kind)
	}
	wantKinds := map[trace.ControlKind]bool{
		trace.KindSeq: true, trace.KindBranch: true,
		trace.KindLink: true, trace.KindIndirect: true,
	}
	got := map[trace.ControlKind]bool{}
	for _, k := range kinds {
		got[k] = true
	}
	for k := range wantKinds {
		if !got[k] {
			t.Errorf("kind %v never emitted (kinds: %v)", k, kinds)
		}
	}
	// One packet per instruction at the default 4-byte packet: Cycles is
	// the event count, and every non-first event chains Prev correctly.
	if c.Cycles != uint64(len(evs)) {
		t.Errorf("cycles = %d, events = %d", c.Cycles, len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Prev != evs[i-1].Addr {
			t.Errorf("event %d Prev = %#x, want %#x", i, evs[i].Prev, evs[i-1].Addr)
		}
	}
}

// A wider packet must coalesce consecutive fetches exactly like the FRVL
// frontend does: straight-line code at PacketBytes=8 emits one event per
// two instructions.
func TestRV32PacketCoalescing(t *testing.T) {
	var evs []trace.FetchEvent
	c := NewRV32()
	c.PacketBytes = 8
	st := trace.NewStager([]trace.SinkPair{{Fetch: trace.FetchFunc(func(ev trace.FetchEvent) { evs = append(evs, ev) })}})
	c.Attach(st)
	runRV32On(t, c, `
	.org 0x1000
_start:	li   a0, 1
	li   a1, 2
	li   a2, 3
	li   a3, 4
	ebreak
`)
	st.Flush()
	// 5 instructions at 2 per packet = 3 packets (the last holds ebreak),
	// one run.
	if len(evs) != 1 || evs[0].Run != 2 || evs[0].Shift != 3 {
		t.Fatalf("got fetch runs %+v at 8-byte packets, want one of 3 packets", evs)
	}
	evs = packets(evs)
	for _, ev := range evs {
		if ev.Addr%8 != 0 {
			t.Errorf("packet %#x not 8-byte aligned", ev.Addr)
		}
	}
}
