package sim

// RV32CPU is the RV32IM core: the second ISA frontend behind the trace
// interface. It emits the same FetchEvent/DataEvent streams as the FRVL CPU
// — the trace contract is what makes everything above internal/trace
// frontend-independent — but fetches 4-byte packets by default (one
// instruction per cycle) instead of FRVL's 8-byte VLIW packet.

import (
	"context"
	"fmt"
	"math"

	"waymemo/internal/asm"
	"waymemo/internal/isa/rv32"
	"waymemo/internal/mem"
	"waymemo/internal/trace"
)

// RV32CPU is one RV32IM core with its memory.
type RV32CPU struct {
	Mem  *mem.Memory
	Regs [rv32.NumRegs]uint32
	PC   uint32

	// Halted is set by ebreak and by the exit ecall (a7=93).
	Halted bool
	// Console accumulates bytes written by the putchar ecall (a7=1).
	Console []byte

	// Instrs counts executed instructions; Cycles counts fetch packets.
	Instrs uint64
	Cycles uint64

	// PacketBytes overrides the fetch packet size for ablation studies;
	// zero selects rv32.PacketBytes (4). It must pass CheckPacketBytes, and
	// is read when the first instruction runs.
	PacketBytes uint32

	fe front[rv32.Instr]
}

// NewRV32 returns an RV32CPU with a fresh memory.
func NewRV32() *RV32CPU {
	return &RV32CPU{Mem: mem.New()}
}

// decodeRV32 decodes one word for the front end. An undecodable word
// carries Op 0 (no valid RV32 instruction has major opcode 0), so
// execution reports it when it is reached, not when it is decoded.
func decodeRV32(w uint32) rv32.Instr {
	if in, ok := rv32.Decode(w); ok {
		return in
	}
	return rv32.Instr{}
}

// Attach routes the core's events into st, which the caller flushes once
// the run has succeeded. A nil st detaches: the core then builds no events.
func (c *RV32CPU) Attach(st *trace.Stager) { c.fe.attach(st) }

// LoadProgram loads an assembled program image and predecodes its text
// from the loaded memory. The PC is set to the program entry and the stack
// pointer to sp.
func (c *RV32CPU) LoadProgram(p *asm.Program, sp uint32) {
	if c.Mem == nil {
		c.Mem = mem.New()
	}
	c.fe.load(p, c.Mem, decodeRV32, rv32.Instr{Op: gapOp})
	c.PC = p.Entry
	c.Regs[rv32.RegSP] = sp
}

// AsCPU returns an FRVL-shaped view of the machine state — memory, console,
// counters — so the Go reference Check functions, which only inspect memory
// and symbols, validate RV32 runs through the same signature they validate
// FRVL runs.
func (c *RV32CPU) AsCPU() *CPU {
	return &CPU{
		Mem:     c.Mem,
		Console: c.Console,
		PC:      c.PC,
		Halted:  c.Halted,
		Instrs:  c.Instrs,
		Cycles:  c.Cycles,
	}
}

// Step executes one instruction.
func (c *RV32CPU) Step() error {
	_, err := c.steps(1)
	return err
}

// trap wraps a fault of the instruction in at pc with its disassembly.
func (c *RV32CPU) trap(pc uint32, in *rv32.Instr, err error) error {
	return fmt.Errorf("sim: pc=0x%x %s: %w", pc, rv32.Disassemble(*in, pc), err)
}

// steps is the RV32 interpreter, the only one: Step is steps(1). It is
// built like the FRVL one (CPU.steps). At the default 4-byte packet every
// instruction starts a packet, so there the run extension is the common
// path, and it is inline here too.
func (c *RV32CPU) steps(n uint64) (uint64, error) {
	if c.Halted || n == 0 {
		return 0, nil
	}
	f := &c.fe
	if !f.ready {
		if err := f.gate(c.PC, c.PacketBytes, rv32.PacketBytes); err != nil {
			return 0, err
		}
	}
	r, m := &c.Regs, c.Mem
	instrs, base := f.text.instrs, f.text.base
	pc := c.PC
	var i uint64
	var err error
loop:
	for ; i < n; i++ {
		if pc%word != 0 {
			err = f.gate(pc, c.PacketBytes, rv32.PacketBytes)
			break
		}
		if packet := pc &^ (f.pb - 1); packet != f.cur {
			c.Cycles++
			if run := f.run; run != nil && !f.pendValid && packet == f.cur+f.pb && run.Run < trace.MaxRun {
				run.Run++
			} else if f.fetchOn {
				f.stage(packet, f.cur)
			}
			f.cur = packet
		}
		f.pendValid = false
		var in *rv32.Instr
		if k := (pc - base) / word; k < uint32(len(instrs)) {
			in = &instrs[k]
		} else {
			in = f.decodeMem(pc, m, decodeRV32)
		}
		next := pc + rv32.Word
	dispatch:
		switch in.Op {
		case rv32.OpLUI:
			r[in.Rd] = uint32(in.Imm)
		case rv32.OpAUIPC:
			r[in.Rd] = pc + uint32(in.Imm)
		case rv32.OpJAL:
			r[in.Rd] = pc + rv32.Word
			next = f.branch(pc, in.Imm)
		case rv32.OpJALR:
			// Target before link write: rd may alias rs1.
			target := (r[in.Rs1] + uint32(in.Imm)) &^ 1
			r[in.Rd] = pc + rv32.Word
			kind := trace.KindIndirect
			if in.Rs1 == rv32.RegRA {
				kind = trace.KindLink
			}
			f.pend(kind, target, 0)
			next = target
		case rv32.OpBranch:
			a, b := r[in.Rs1], r[in.Rs2]
			var taken bool
			switch in.F3 {
			case rv32.F3BEQ:
				taken = a == b
			case rv32.F3BNE:
				taken = a != b
			case rv32.F3BLT:
				taken = int32(a) < int32(b)
			case rv32.F3BGE:
				taken = int32(a) >= int32(b)
			case rv32.F3BLTU:
				taken = a < b
			case rv32.F3BGEU:
				taken = a >= b
			}
			if taken {
				next = f.branch(pc, in.Imm)
			}
		case rv32.OpLoad:
			b := r[in.Rs1]
			addr := b + uint32(in.Imm)
			switch in.F3 {
			case rv32.F3LB:
				if f.dataOn {
					*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 1}
				}
				r[in.Rd] = uint32(int32(int8(m.LoadByte(addr))))
			case rv32.F3LBU:
				if f.dataOn {
					*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 1}
				}
				r[in.Rd] = uint32(m.LoadByte(addr))
			case rv32.F3LH:
				if addr%2 != 0 {
					err = c.trap(pc, in, unaligned(2, addr))
					break loop
				}
				if f.dataOn {
					*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 2}
				}
				r[in.Rd] = uint32(int32(int16(m.ReadHalf(addr))))
			case rv32.F3LHU:
				if addr%2 != 0 {
					err = c.trap(pc, in, unaligned(2, addr))
					break loop
				}
				if f.dataOn {
					*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 2}
				}
				r[in.Rd] = uint32(m.ReadHalf(addr))
			case rv32.F3LW:
				if addr%4 != 0 {
					err = c.trap(pc, in, unaligned(4, addr))
					break loop
				}
				if f.dataOn {
					*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 4}
				}
				r[in.Rd] = m.ReadWord(addr)
			}
		case rv32.OpStore:
			b := r[in.Rs1]
			addr := b + uint32(in.Imm)
			switch in.F3 {
			case 0: // sb
				if f.inText(addr, 1) {
					err = c.trap(pc, in, storeIntoText(addr))
					break loop
				}
				if f.dataOn {
					*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Store: true, Size: 1}
				}
				m.StoreByte(addr, byte(r[in.Rs2]))
			case 1: // sh
				if addr%2 != 0 {
					err = c.trap(pc, in, unaligned(2, addr))
					break loop
				}
				if f.inText(addr, 2) {
					err = c.trap(pc, in, storeIntoText(addr))
					break loop
				}
				if f.dataOn {
					*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Store: true, Size: 2}
				}
				m.WriteHalf(addr, uint16(r[in.Rs2]))
			case 2: // sw
				if addr%4 != 0 {
					err = c.trap(pc, in, unaligned(4, addr))
					break loop
				}
				if f.inText(addr, 4) {
					err = c.trap(pc, in, storeIntoText(addr))
					break loop
				}
				if f.dataOn {
					*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Store: true, Size: 4}
				}
				m.WriteWord(addr, r[in.Rs2])
			}
		case rv32.OpOpImm:
			rs1 := r[in.Rs1]
			switch in.F3 {
			case rv32.F3ADD:
				r[in.Rd] = rs1 + uint32(in.Imm)
			case rv32.F3SLL:
				r[in.Rd] = rs1 << uint32(in.Imm&31)
			case rv32.F3SLT:
				r[in.Rd] = b2u(int32(rs1) < in.Imm)
			case rv32.F3SLTU:
				r[in.Rd] = b2u(rs1 < uint32(in.Imm))
			case rv32.F3XOR:
				r[in.Rd] = rs1 ^ uint32(in.Imm)
			case rv32.F3SR:
				if in.F7 == rv32.F7Sub {
					r[in.Rd] = uint32(int32(rs1) >> uint32(in.Imm&31))
				} else {
					r[in.Rd] = rs1 >> uint32(in.Imm&31)
				}
			case rv32.F3OR:
				r[in.Rd] = rs1 | uint32(in.Imm)
			default: // F3AND
				r[in.Rd] = rs1 & uint32(in.Imm)
			}
		case rv32.OpOp:
			rs1, rs2 := r[in.Rs1], r[in.Rs2]
			if in.F7 == rv32.F7Mul {
				switch in.F3 {
				case rv32.F3MUL:
					r[in.Rd] = rs1 * rs2
				case rv32.F3MULH:
					r[in.Rd] = uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32)
				case rv32.F3MULHSU:
					r[in.Rd] = uint32(uint64(int64(int32(rs1))*int64(rs2)) >> 32)
				case rv32.F3MULHU:
					r[in.Rd] = uint32(uint64(rs1) * uint64(rs2) >> 32)
				default:
					r[in.Rd] = divRem(in.F3, rs1, rs2)
				}
				break
			}
			switch in.F3 {
			case rv32.F3ADD:
				if in.F7 == rv32.F7Sub {
					r[in.Rd] = rs1 - rs2
				} else {
					r[in.Rd] = rs1 + rs2
				}
			case rv32.F3SLL:
				r[in.Rd] = rs1 << (rs2 & 31)
			case rv32.F3SLT:
				r[in.Rd] = b2u(int32(rs1) < int32(rs2))
			case rv32.F3SLTU:
				r[in.Rd] = b2u(rs1 < rs2)
			case rv32.F3XOR:
				r[in.Rd] = rs1 ^ rs2
			case rv32.F3SR:
				if in.F7 == rv32.F7Sub {
					r[in.Rd] = uint32(int32(rs1) >> (rs2 & 31))
				} else {
					r[in.Rd] = rs1 >> (rs2 & 31)
				}
			case rv32.F3OR:
				r[in.Rd] = rs1 | rs2
			default: // F3AND
				r[in.Rd] = rs1 & rs2
			}
		case rv32.OpSystem:
			if err = c.execSystem(in); err != nil {
				err = fmt.Errorf("sim: pc=0x%x: %w", pc, err)
				break loop
			}
			if c.Halted {
				i++
				break loop
			}
		case 0:
			err = fmt.Errorf("sim: pc=0x%x: illegal instruction 0x%08x", pc, m.ReadWord(pc))
			break loop
		default:
			if in.Op == gapOp {
				in = f.decodeMem(pc, m, decodeRV32)
				goto dispatch
			}
			err = fmt.Errorf("sim: pc=0x%x: illegal opcode 0x%x", pc, in.Op)
			break loop
		}
		r[rv32.RegZero] = 0
		pc = next
	}
	c.PC = pc
	c.Instrs += i
	return i, err
}

// divRem executes the M extension's divides. RISC-V divide never traps:
// division by zero yields all-ones (quotient) or the dividend
// (remainder), and the signed overflow case wraps.
func divRem(f3 uint8, rs1, rs2 uint32) uint32 {
	switch f3 {
	case rv32.F3DIV:
		switch {
		case rs2 == 0:
			return ^uint32(0)
		case int32(rs1) == math.MinInt32 && int32(rs2) == -1:
			return rs1
		}
		return uint32(int32(rs1) / int32(rs2))
	case rv32.F3DIVU:
		if rs2 == 0 {
			return ^uint32(0)
		}
		return rs1 / rs2
	case rv32.F3REM:
		switch {
		case rs2 == 0:
			return rs1
		case int32(rs1) == math.MinInt32 && int32(rs2) == -1:
			return 0
		}
		return uint32(int32(rs1) % int32(rs2))
	default: // F3REMU
		if rs2 == 0 {
			return rs1
		}
		return rs1 % rs2
	}
}

// execSystem implements the tiny runtime ABI: ebreak halts; ecall consults
// a7 — 93 (exit) halts, 1 (putchar) appends the low byte of a0 to Console.
func (c *RV32CPU) execSystem(in *rv32.Instr) error {
	if in.Imm == rv32.SysEBreak {
		c.Halted = true
		return nil
	}
	switch c.Regs[rv32.RegA7] {
	case 93:
		c.Halted = true
		return nil
	case 1:
		c.Console = append(c.Console, byte(c.Regs[rv32.RegA0]))
		return nil
	}
	return fmt.Errorf("unsupported ecall %d", c.Regs[rv32.RegA7])
}

// Run executes until halt or until maxInstrs instructions have retired
// without a halt.
func (c *RV32CPU) Run(maxInstrs uint64) error {
	return c.RunContext(context.Background(), maxInstrs)
}

// RunContext is Run with cancellation, checked between instruction chunks.
func (c *RV32CPU) RunContext(ctx context.Context, maxInstrs uint64) error {
	return runCore(ctx, c, maxInstrs)
}

func (c *RV32CPU) halted() bool { return c.Halted }
func (c *RV32CPU) pc() uint32   { return c.PC }
