package asm

import (
	"encoding/binary"
	"strings"
	"testing"

	"waymemo/internal/isa"
)

// words decodes the single contiguous segment of a program into 32-bit words.
func words(t *testing.T, p *Program) []uint32 {
	t.Helper()
	if len(p.Segments) != 1 {
		t.Fatalf("expected one segment, got %d", len(p.Segments))
	}
	data := p.Segments[0].Data
	if len(data)%4 != 0 {
		t.Fatalf("segment length %d not word aligned", len(data))
	}
	out := make([]uint32, len(data)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	return out
}

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestBasicEncoding(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x1000
		add  t0, t1, t2
		addi t0, t1, -5
		lw   s0, 8(sp)
		sw   s0, -4(sp)
		halt
	`)
	ws := words(t, p)
	want := []isa.Instr{
		{Op: isa.OpR, Funct: isa.FnADD, Rd: 7, Rs: 8, Rt: 9},
		{Op: isa.OpADDI, Rt: 7, Rs: 8, Imm: -5},
		{Op: isa.OpLW, Rt: 17, Rs: 30, Imm: 8},
		{Op: isa.OpSW, Rt: 17, Rs: 30, Imm: -4},
		{Op: isa.OpHALT},
	}
	for i, w := range want {
		if got := isa.Decode(ws[i]); got != w {
			t.Errorf("word %d: got %+v want %+v", i, got, w)
		}
	}
	if p.Segments[0].Addr != 0x1000 {
		t.Errorf("segment addr = %#x, want 0x1000", p.Segments[0].Addr)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x2000
	top:	addi t0, t0, 1
		bne  t0, t1, top
		beq  t0, t1, done
		nop
	done:	halt
	`)
	ws := words(t, p)
	// bne at 0x2004 targeting 0x2000: offset -4.
	bne := isa.Decode(ws[1])
	if bne.Op != isa.OpBNE || bne.Imm != -4 {
		t.Errorf("bne: %+v", bne)
	}
	// beq at 0x2008 targeting 0x2010: offset +8.
	beq := isa.Decode(ws[2])
	if beq.Op != isa.OpBEQ || beq.Imm != 8 {
		t.Errorf("beq: %+v", beq)
	}
}

func TestForwardJump(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x3000
		jal  fn
		halt
	fn:	ret
	`)
	ws := words(t, p)
	jal := isa.Decode(ws[0])
	if jal.Op != isa.OpJAL || jal.Off26 != 8 {
		t.Errorf("jal: %+v", jal)
	}
	ret := isa.Decode(ws[2])
	if ret.Op != isa.OpR || ret.Funct != isa.FnJR || ret.Rs != isa.RegRA {
		t.Errorf("ret: %+v", ret)
	}
}

func TestLISizing(t *testing.T) {
	// Small constants: one instruction; 32-bit: two.
	p := mustAssemble(t, `
		.org 0
		li t0, 42
		li t1, -42
		li t2, 0xFFFF
		li t3, 0x12345678
		li t4, 0x10000
	`)
	ws := words(t, p)
	if len(ws) != 6 {
		t.Fatalf("got %d words, want 6", len(ws))
	}
	if in := isa.Decode(ws[0]); in.Op != isa.OpADDI || in.Imm != 42 {
		t.Errorf("li small: %+v", in)
	}
	if in := isa.Decode(ws[2]); in.Op != isa.OpORI || uint16(in.Imm) != 0xFFFF {
		t.Errorf("li 0xFFFF: %+v", in)
	}
	lui := isa.Decode(ws[3])
	ori := isa.Decode(ws[4])
	if lui.Op != isa.OpLUI || uint16(lui.Imm) != 0x1234 {
		t.Errorf("li wide lui: %+v", lui)
	}
	if ori.Op != isa.OpORI || uint16(ori.Imm) != 0x5678 {
		t.Errorf("li wide ori: %+v", ori)
	}
	if in := isa.Decode(ws[5]); in.Op != isa.OpLUI || uint16(in.Imm) != 1 {
		t.Errorf("li 0x10000: %+v", in)
	}
}

func TestLAForwardReference(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x1000
		la  t0, data
		halt
	data:	.word 0xCAFEBABE
	`)
	ws := words(t, p)
	lui, ori := isa.Decode(ws[0]), isa.Decode(ws[1])
	addr := uint32(uint16(lui.Imm))<<16 | uint32(uint16(ori.Imm))
	if want := p.Symbols["data"]; addr != want {
		t.Errorf("la built %#x, want %#x", addr, want)
	}
	if ws[3] != 0xCAFEBABE {
		t.Errorf("data word = %#x", ws[3])
	}
}

func TestDirectives(t *testing.T) {
	p := mustAssemble(t, `
		.equ N, 10
		.org 0x100
	a:	.byte 1, 2, N
		.align 4
	b:	.half 0x1234
		.align 8
	c:	.word N*N+5
	s:	.asciiz "hi\n"
		.space 3, 0xFF
	d:	.double 1.5
	`)
	if p.Symbols["a"] != 0x100 || p.Symbols["b"] != 0x104 || p.Symbols["c"] != 0x108 {
		t.Fatalf("symbols: a=%#x b=%#x c=%#x", p.Symbols["a"], p.Symbols["b"], p.Symbols["c"])
	}
	data := p.Segments[0].Data
	if data[0] != 1 || data[1] != 2 || data[2] != 10 {
		t.Errorf(".byte: % x", data[:3])
	}
	if binary.LittleEndian.Uint32(data[8:]) != 105 {
		t.Errorf(".word expr: %d", binary.LittleEndian.Uint32(data[8:]))
	}
	if got := string(data[12:16]); got != "hi\n\x00" {
		t.Errorf(".asciiz: %q", got)
	}
	if data[16] != 0xFF || data[18] != 0xFF {
		t.Errorf(".space fill: % x", data[16:19])
	}
}

func TestExpressions(t *testing.T) {
	p := mustAssemble(t, `
		.equ BASE, 0x10000
		.org 0
		.word BASE + 4*8, (1<<12) | 7, 100/4, 'A', hi(0xDEADBEEF), lo(0xDEADBEEF), ~0 & 0xFF
	`)
	ws := words(t, p)
	want := []uint32{0x10020, 4103, 25, 65, 0xDEAD, 0xBEEF, 0xFF}
	for i, w := range want {
		if ws[i] != w {
			t.Errorf("expr %d: got %#x want %#x", i, ws[i], w)
		}
	}
}

func TestPseudoExpansions(t *testing.T) {
	p := mustAssemble(t, `
		.org 0
		move t0, t1
		not  t2, t3
		neg  t4, t5
		push s0
		pop  s0
		b    end
	end:	halt
	`)
	ws := words(t, p)
	if in := isa.Decode(ws[0]); in.Funct != isa.FnADD || in.Rt != 0 {
		t.Errorf("move: %+v", in)
	}
	if in := isa.Decode(ws[1]); in.Funct != isa.FnNOR {
		t.Errorf("not: %+v", in)
	}
	if in := isa.Decode(ws[2]); in.Funct != isa.FnSUB || in.Rs != 0 {
		t.Errorf("neg: %+v", in)
	}
	// push = addi sp,sp,-4 ; sw
	if in := isa.Decode(ws[3]); in.Op != isa.OpADDI || in.Imm != -4 {
		t.Errorf("push[0]: %+v", in)
	}
	if in := isa.Decode(ws[4]); in.Op != isa.OpSW {
		t.Errorf("push[1]: %+v", in)
	}
}

func TestEntryConventions(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x400
		nop
	_start:	halt
	`)
	if p.Entry != 0x404 {
		t.Errorf("_start entry = %#x", p.Entry)
	}
	p2 := mustAssemble(t, `
		.org 0x400
		nop
	`)
	if p2.Entry != 0x400 {
		t.Errorf("first-instruction entry = %#x", p2.Entry)
	}
}

func TestTextRanges(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x100
		nop
		nop
	d:	.word 7
		nop
	`)
	want := [][2]uint32{{0x100, 0x108}, {0x10c, 0x110}}
	if len(p.TextRanges) != len(want) {
		t.Fatalf("text ranges: %v", p.TextRanges)
	}
	for i := range want {
		if p.TextRanges[i] != want[i] {
			t.Errorf("range %d: %v want %v", i, p.TextRanges[i], want[i])
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"bogus t0, t1", "unknown mnemonic"},
		{"add t0, t1", "expects 3 operands"},
		{"addi t0, t1, 70000", "out of signed 16-bit range"},
		{"lw t0, t1", "must have the form"},
		{"x: .word 1\nx: .word 2", "redefined"},
		{".org 0\nbeq t0, t1, far\n.org 0x100000\nfar: halt", "out of range"},
		{"add q9, t0, t1", "bad register"},
		{".word undefined_symbol", "undefined symbol"},
		{".space -1", "out of range"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("src %q: error %v, want containing %q", c.src, err, c.frag)
		}
	}
}

func TestCommentsAndFormats(t *testing.T) {
	p := mustAssemble(t, `
		.org 0 ; trailing comment
		# full line comment
		// also a comment
		addi t0, t0, 1 # comment with 'quote
		.asciiz "semicolon ; inside"
	`)
	data := p.Segments[0].Data
	if len(data) != 4+len("semicolon ; inside")+1 {
		t.Fatalf("unexpected image size %d", len(data))
	}
}

func TestMultipleSources(t *testing.T) {
	rt := "lib:\tret\n"
	main := `
		.org 0
		jal lib
		halt
	`
	// Sources are concatenated in order: main defines .org first.
	p, err := Assemble(main, rt)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if _, ok := p.Symbols["lib"]; !ok {
		t.Fatal("lib symbol missing")
	}
}

// FuzzAssemble feeds arbitrary source to both dialects: the assembler
// must report malformed input as an error, never panic.
func FuzzAssemble(f *testing.F) {
	for _, s := range []string{
		"",
		"\t.org 0x10000\nmain:\tli t0, 5\n\tla s0, buf\n\tlw t1, 4(s0)\n\tb main\n\thalt\n\t.org 0x100000\nbuf:\t.word 1, 2, -3\n",
		"\t.equ N, 64\n\t.org 0x10000\nmain:\tli t9, N*4+(1<<3)\n\tbge s1, t9, main\n\tpush t2\n\tpop t2\n\tret\n",
		"\t.org 0x1000\n_start:\taddi a0, zero, 5\n\tlui t0, 0x12345\n\tsw a0, -4(sp)\n\tbeq a0, a0, done\ndone:\tebreak\n",
		"\t.org 0x1000\n\t.align 3\n\t.byte 'a', '\\n'\n\t.ascii \"hi\"\n\t.space 4\nx:\tjal x\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Assemble(src)
		_, _ = AssembleRV32(src)
	})
}
