package sim

import (
	"slices"
	"strings"
	"testing"

	"waymemo/internal/asm"
	"waymemo/internal/trace"
)

const stackTop = 0x001F0000

// run assembles src, executes it to completion and returns the CPU.
func run(t *testing.T, src string) *CPU {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New()
	c.LoadProgram(p, stackTop)
	if err := c.Run(50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestArithLoop(t *testing.T) {
	// Sum 1..100 = 5050.
	c := run(t, `
		.org 0x10000
		li   t0, 100
		li   s0, 0
	loop:	add  s0, s0, t0
		addi t0, t0, -1
		bnez t0, loop
		halt
	`)
	if got := c.Regs[17]; got != 5050 {
		t.Fatalf("sum = %d, want 5050", got)
	}
}

func TestMemoryOps(t *testing.T) {
	c := run(t, `
		.org 0x10000
		la   t0, buf
		li   t1, 0x11223344
		sw   t1, 0(t0)
		lb   t2, 0(t0)   ; 0x44
		lbu  t3, 3(t0)   ; 0x11
		lh   t4, 0(t0)   ; 0x3344
		lhu  t5, 2(t0)   ; 0x1122
		li   t6, -2
		sh   t6, 4(t0)
		lh   t7, 4(t0)   ; -2
		lhu  t8, 4(t0)   ; 0xFFFE
		halt
	buf:	.space 16
	`)
	want := map[int]uint32{9: 0x44, 10: 0x11, 11: 0x3344, 12: 0x1122, 14: 0xFFFFFFFE, 15: 0xFFFE}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("r%d = %#x, want %#x", r, c.Regs[r], v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	c := run(t, `
		.org 0x10000
		li  t0, -7
		li  t1, 2
		div t2, t0, t1    ; -3
		rem t3, t0, t1    ; -1
		sra t4, t0, 1     ; -4
		srl t5, t0, 28    ; 0xF
		slt t6, t0, t1    ; 1
		sltu t7, t0, t1   ; 0 (0xFFFFFFF9 > 2)
		mul t8, t0, t1    ; -14
		mulh t9, t0, t1   ; -1
		halt
	`)
	checks := map[int]uint32{
		9:  0xFFFFFFFD,
		10: 0xFFFFFFFF,
		11: 0xFFFFFFFC,
		12: 0xF,
		13: 1,
		14: 0,
		15: 0xFFFFFFF2,
		16: 0xFFFFFFFF,
	}
	for r, v := range checks {
		if c.Regs[r] != v {
			t.Errorf("r%d = %#x, want %#x", r, c.Regs[r], v)
		}
	}
}

func TestCallReturn(t *testing.T) {
	c := run(t, `
		.org 0x10000
		li   a0, 6
		jal  fact
		move s0, v0
		halt
	; v0 = a0! (recursive)
	fact:	li   v0, 1
		blez a0, fret
		push ra
		push a0
		addi a0, a0, -1
		jal  fact
		pop  a0
		pop  ra
		mul  v0, v0, a0
	fret:	ret
	`)
	if c.Regs[17] != 720 {
		t.Fatalf("6! = %d, want 720", c.Regs[17])
	}
}

func TestFloatOps(t *testing.T) {
	c := run(t, `
		.org 0x10000
		la   t0, vals
		fld  f1, 0(t0)
		fld  f2, 8(t0)
		fadd f3, f1, f2
		fmul f4, f1, f2
		fdiv f5, f1, f2
		fsqrt f6, f2
		li   t1, 3
		fcvtdw f7, t1
		fadd f3, f3, f7
		fsd  f3, 16(t0)
		fld  f8, 16(t0)
		fcvtwd t2, f8
		fclt t3, f1, f2
		fceq t4, f1, f1
		halt
		.align 8
	vals:	.double 1.5, 4.0
		.space 8
	`)
	if c.FRegs[3] != 8.5 {
		t.Errorf("f3 = %v, want 8.5", c.FRegs[3])
	}
	if c.FRegs[4] != 6.0 || c.FRegs[5] != 0.375 || c.FRegs[6] != 2.0 {
		t.Errorf("f4..f6 = %v %v %v", c.FRegs[4], c.FRegs[5], c.FRegs[6])
	}
	if c.Regs[9] != 8 { // t2: int32(8.5) = 8
		t.Errorf("fcvtwd = %d", c.Regs[9])
	}
	if c.Regs[10] != 1 || c.Regs[11] != 1 {
		t.Errorf("float compares: %d %d", c.Regs[10], c.Regs[11])
	}
}

func TestConsole(t *testing.T) {
	c := run(t, `
		.org 0x10000
		li t0, 'H'
		outb t0
		li t0, 'i'
		outb t0
		halt
	`)
	if got := string(c.Console); got != "Hi" {
		t.Fatalf("console %q", got)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c := run(t, `
		.org 0x10000
		li   zero, 55
		addi r0, r0, 9
		halt
	`)
	if c.Regs[0] != 0 {
		t.Fatalf("r0 = %d", c.Regs[0])
	}
}

func TestStoreToTextRejected(t *testing.T) {
	p, err := asm.Assemble(`
		.org 0x10000
		la  t0, loop
	loop:	sw  t1, 0(t0)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.LoadProgram(p, stackTop)
	err = c.Run(100)
	if err == nil || !strings.Contains(err.Error(), "self-modifying") {
		t.Fatalf("err = %v", err)
	}
}

func TestDivZeroTrap(t *testing.T) {
	p, err := asm.Assemble(`
		.org 0x10000
		li  t0, 1
		div t1, t0, zero
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.LoadProgram(p, stackTop)
	if err := c.Run(100); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunBudget(t *testing.T) {
	p, err := asm.Assemble(`
		.org 0x10000
	spin:	b spin
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.LoadProgram(p, stackTop)
	if err := c.Run(1000); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

// TestFetchEvents verifies the packet stream and its control-kind
// classification on a known program layout.
func TestFetchEvents(t *testing.T) {
	p, err := asm.Assemble(`
		.org 0x10000
		nop          ; 0x10000 packet A
		nop          ; 0x10004
		nop          ; 0x10008 packet B
		jal  fn      ; 0x1000c -> fn
		halt         ; 0x10010 packet C
		.align 32
	fn:	ret          ; 0x10020 packet D
	`)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Buffer
	st := trace.NewCapture(&rec)
	c := New()
	c.Attach(st)
	c.LoadProgram(p, stackTop)
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	type want struct {
		addr uint32
		kind trace.ControlKind
		disp int32
	}
	wants := []want{
		{0x10000, trace.KindSeq, 8},       // first fetch
		{0x10008, trace.KindSeq, 8},       // sequential crossing
		{0x10020, trace.KindBranch, 0x14}, // jal fn: base=0x1000c, disp=0x14
		{0x10010, trace.KindLink, 0},      // ret to 0x10010
	}
	// Packets A and B are one run: B is a fall-through.
	if runs := rec.Fetches(); len(runs) != 3 || runs[0].Run != 1 || runs[0].Shift != 3 {
		t.Fatalf("got runs %+v, want 3 with the first of 2 packets", runs)
	}
	fetches := packets(rec.Fetches())
	if len(fetches) != len(wants) {
		t.Fatalf("got %d fetches: %+v", len(fetches), fetches)
	}
	for i, w := range wants {
		ev := fetches[i]
		if ev.Addr != w.addr || ev.Kind != w.kind || ev.Disp != w.disp {
			t.Errorf("fetch %d: got addr=%#x kind=%v disp=%d, want addr=%#x kind=%v disp=%d",
				i, ev.Addr, ev.Kind, ev.Disp, w.addr, w.kind, w.disp)
		}
	}
	if !fetches[0].First {
		t.Error("first fetch not flagged")
	}
	// jal fn: base must be the branch address.
	if fetches[2].Base != 0x1000c {
		t.Errorf("branch base = %#x", fetches[2].Base)
	}
	// Cycle count equals number of packet fetches.
	if c.Cycles != uint64(len(fetches)) {
		t.Errorf("cycles = %d, want %d", c.Cycles, len(fetches))
	}
}

// packets expands fetch runs into their packets.
func packets(runs []trace.FetchEvent) []trace.FetchEvent {
	var out []trace.FetchEvent
	for _, r := range runs {
		out = slices.AppendSeq(out, r.Packets())
	}
	return out
}

// TestDataEvents verifies base/displacement plumbing for loads and stores.
func TestDataEvents(t *testing.T) {
	p, err := asm.Assemble(`
		.org 0x10000
		la  t0, buf
		lw  t1, 4(t0)
		sw  t1, 8(t0)
		lb  t2, -1(t0)
		halt
	pad:	.space 4
	buf:	.word 1, 2, 3, 4
	`)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Buffer
	st := trace.NewCapture(&rec)
	c := New()
	c.Attach(st)
	c.LoadProgram(p, stackTop)
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	buf := p.Symbols["buf"]
	type want struct {
		addr  uint32
		disp  int32
		store bool
		size  uint8
	}
	wants := []want{
		{buf + 4, 4, false, 4},
		{buf + 8, 8, true, 4},
		{buf - 1, -1, false, 1},
	}
	if len(rec.Datas()) != len(wants) {
		t.Fatalf("got %d data events", len(rec.Datas()))
	}
	for i, w := range wants {
		ev := rec.Datas()[i]
		if ev.Addr != w.addr || ev.Disp != w.disp || ev.Store != w.store || ev.Size != w.size {
			t.Errorf("data %d: got %+v want %+v", i, ev, w)
		}
		if ev.Base+uint32(ev.Disp) != ev.Addr {
			t.Errorf("data %d: base+disp != addr", i)
		}
	}
}

// TestIntraPacketBranchNoFetch checks that a taken branch whose target lies
// in the same packet does not generate an I-cache access.
func TestIntraPacketBranchNoFetch(t *testing.T) {
	p, err := asm.Assemble(`
		.org 0x10000
		li   t0, 3       ; 0x10000
		nop              ; 0x10004
	spin:	addi t0, t0, -1  ; 0x10008  packet B
		bnez t0, spin    ; 0x1000c  same packet
		halt             ; 0x10010
	`)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Buffer
	st := trace.NewCapture(&rec)
	c := New()
	c.Attach(st)
	c.LoadProgram(p, stackTop)
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	// Expected packets: 0x10000, 0x10008 (loop runs within), 0x10010,
	// all one run.
	fetches := packets(rec.Fetches())
	if len(fetches) != 3 || len(rec.Fetches()) != 1 {
		t.Fatalf("fetches: %+v", rec.Fetches())
	}
	// Final packet reached by an untaken branch: sequential.
	if fetches[2].Kind != trace.KindSeq {
		t.Errorf("final fetch kind = %v", fetches[2].Kind)
	}
}

func TestFlowClassification(t *testing.T) {
	// Line size 32B. Same-line seq, same-line branch, cross-line seq,
	// cross-line branch.
	ev := trace.FetchEvent{Addr: 0x10008, Prev: 0x10000, Kind: trace.KindSeq}
	if c := trace.Classify(ev, 32); c != trace.IntraSeq {
		t.Errorf("intra seq: %v", c)
	}
	ev = trace.FetchEvent{Addr: 0x10000, Prev: 0x10018, Kind: trace.KindBranch}
	if c := trace.Classify(ev, 32); c != trace.IntraNonSeq {
		t.Errorf("intra nonseq: %v", c)
	}
	ev = trace.FetchEvent{Addr: 0x10020, Prev: 0x10018, Kind: trace.KindSeq}
	if c := trace.Classify(ev, 32); c != trace.InterSeq {
		t.Errorf("inter seq: %v", c)
	}
	ev = trace.FetchEvent{Addr: 0x10100, Prev: 0x10018, Kind: trace.KindLink}
	if c := trace.Classify(ev, 32); c != trace.InterNonSeq {
		t.Errorf("inter nonseq: %v", c)
	}
}

// TestPredecodeShared checks that every CPU loading one program decodes a
// non-empty table of its text, and that a reload of the same program
// executes identically.
func TestPredecodeShared(t *testing.T) {
	src := `
	.org 0x1000
main:	addi r1, r0, 0
	addi r2, r0, 10
loop:	add  r1, r1, r2
	addi r2, r2, -1
	bne  r2, r0, loop
	halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var want uint32
	for i := 0; i < 2; i++ {
		c := New()
		c.LoadProgram(p, stackTop)
		if len(c.fe.text.instrs) == 0 {
			t.Fatal("predecoded table is empty")
		}
		if err := c.Run(1000); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			want = c.Regs[1]
		} else if c.Regs[1] != want {
			t.Fatalf("reload diverged: r1=%d want %d", c.Regs[1], want)
		}
	}
	if want != 55 {
		t.Fatalf("r1 = %d, want 55", want)
	}
}

// TestPredecodeOddRange: a hand-built program whose text range is not a
// whole number of words loads: the table covers the whole words, and the
// decode stops at its end.
func TestPredecodeOddRange(t *testing.T) {
	p := &asm.Program{
		Entry:      0x10000,
		Segments:   []asm.Segment{{Addr: 0x10000, Data: make([]byte, 8)}},
		TextRanges: [][2]uint32{{0x10000, 0x10006}},
	}
	c := New()
	c.LoadProgram(p, stackTop)
	if n := len(c.fe.text.instrs); n != 1 {
		t.Fatalf("table of %d slots, want 1", n)
	}
}
