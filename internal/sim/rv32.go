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

// LoadProgram loads an assembled program image and attaches the program's
// shared predecoded instruction table. The PC is set to the program entry
// and the stack pointer to sp.
func (c *RV32CPU) LoadProgram(p *asm.Program, sp uint32) {
	if c.Mem == nil {
		c.Mem = mem.New()
	}
	c.fe.load(p, c.Mem, "rv32", decodeRV32)
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

func (c *RV32CPU) setReg(r uint8, v uint32) {
	if r != rv32.RegZero {
		c.Regs[r] = v
	}
}

// Step executes one instruction.
func (c *RV32CPU) Step() error {
	if c.Halted {
		return nil
	}
	if c.PC%word != 0 || !c.fe.ready {
		if err := c.fe.gate(c.PC, c.PacketBytes, rv32.PacketBytes); err != nil {
			return err
		}
	}
	c.fe.fetch(c.PC, &c.Cycles)
	in := c.fe.at(c.PC)
	if in == nil {
		in = c.fe.decodeMem(c.PC, c.Mem, decodeRV32)
	}
	nextPC := c.PC + rv32.Word
	switch in.Op {
	case rv32.OpLUI:
		c.setReg(in.Rd, uint32(in.Imm))
	case rv32.OpAUIPC:
		c.setReg(in.Rd, c.PC+uint32(in.Imm))
	case rv32.OpJAL:
		c.setReg(in.Rd, c.PC+rv32.Word)
		nextPC = c.PC + uint32(in.Imm)
		c.fe.pend(trace.KindBranch, c.PC, in.Imm)
	case rv32.OpJALR:
		// Target before link write: rd may alias rs1.
		target := (c.Regs[in.Rs1] + uint32(in.Imm)) &^ 1
		c.setReg(in.Rd, c.PC+rv32.Word)
		kind := trace.KindIndirect
		if in.Rs1 == rv32.RegRA {
			kind = trace.KindLink
		}
		c.fe.pend(kind, target, 0)
		nextPC = target
	case rv32.OpBranch:
		if c.branchTaken(in) {
			nextPC = c.PC + uint32(in.Imm)
			c.fe.pend(trace.KindBranch, c.PC, in.Imm)
		}
	case rv32.OpLoad, rv32.OpStore:
		if err := c.execMem(in); err != nil {
			return fmt.Errorf("sim: pc=0x%x %s: %w", c.PC, rv32.Disassemble(*in, c.PC), err)
		}
	case rv32.OpOpImm:
		c.setReg(in.Rd, c.aluImm(in))
	case rv32.OpOp:
		c.setReg(in.Rd, c.alu(in))
	case rv32.OpSystem:
		if err := c.execSystem(in); err != nil {
			return fmt.Errorf("sim: pc=0x%x: %w", c.PC, err)
		}
	case 0:
		return fmt.Errorf("sim: pc=0x%x: illegal instruction 0x%08x", c.PC, c.Mem.ReadWord(c.PC))
	default:
		return fmt.Errorf("sim: pc=0x%x: illegal opcode 0x%x", c.PC, in.Op)
	}
	c.Instrs++
	if !c.Halted {
		c.PC = nextPC
	}
	return nil
}

func (c *RV32CPU) branchTaken(in *rv32.Instr) bool {
	a, b := c.Regs[in.Rs1], c.Regs[in.Rs2]
	switch in.F3 {
	case rv32.F3BEQ:
		return a == b
	case rv32.F3BNE:
		return a != b
	case rv32.F3BLT:
		return int32(a) < int32(b)
	case rv32.F3BGE:
		return int32(a) >= int32(b)
	case rv32.F3BLTU:
		return a < b
	case rv32.F3BGEU:
		return a >= b
	}
	return false
}

func (c *RV32CPU) aluImm(in *rv32.Instr) uint32 {
	rs1 := c.Regs[in.Rs1]
	switch in.F3 {
	case rv32.F3ADD:
		return rs1 + uint32(in.Imm)
	case rv32.F3SLL:
		return rs1 << uint32(in.Imm&31)
	case rv32.F3SLT:
		return b2u(int32(rs1) < in.Imm)
	case rv32.F3SLTU:
		return b2u(rs1 < uint32(in.Imm))
	case rv32.F3XOR:
		return rs1 ^ uint32(in.Imm)
	case rv32.F3SR:
		if in.F7 == rv32.F7Sub {
			return uint32(int32(rs1) >> uint32(in.Imm&31))
		}
		return rs1 >> uint32(in.Imm&31)
	case rv32.F3OR:
		return rs1 | uint32(in.Imm)
	default: // F3AND
		return rs1 & uint32(in.Imm)
	}
}

// alu executes the register-register group, including the M extension.
// RISC-V divide never traps: division by zero yields all-ones (quotient) or
// the dividend (remainder), and the signed overflow case wraps.
func (c *RV32CPU) alu(in *rv32.Instr) uint32 {
	rs1, rs2 := c.Regs[in.Rs1], c.Regs[in.Rs2]
	if in.F7 == rv32.F7Mul {
		switch in.F3 {
		case rv32.F3MUL:
			return rs1 * rs2
		case rv32.F3MULH:
			return uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32)
		case rv32.F3MULHSU:
			return uint32(uint64(int64(int32(rs1))*int64(rs2)) >> 32)
		case rv32.F3MULHU:
			return uint32(uint64(rs1) * uint64(rs2) >> 32)
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
	switch in.F3 {
	case rv32.F3ADD:
		if in.F7 == rv32.F7Sub {
			return rs1 - rs2
		}
		return rs1 + rs2
	case rv32.F3SLL:
		return rs1 << (rs2 & 31)
	case rv32.F3SLT:
		return b2u(int32(rs1) < int32(rs2))
	case rv32.F3SLTU:
		return b2u(rs1 < rs2)
	case rv32.F3XOR:
		return rs1 ^ rs2
	case rv32.F3SR:
		if in.F7 == rv32.F7Sub {
			return uint32(int32(rs1) >> (rs2 & 31))
		}
		return rs1 >> (rs2 & 31)
	case rv32.F3OR:
		return rs1 | rs2
	default: // F3AND
		return rs1 & rs2
	}
}

func (c *RV32CPU) execMem(in *rv32.Instr) error {
	base := c.Regs[in.Rs1]
	addr := base + uint32(in.Imm)
	size := uint8(in.MemBytes())
	if addr%uint32(size) != 0 {
		return fmt.Errorf("unaligned %d-byte access at 0x%x", size, addr)
	}
	store := in.IsStore()
	if store && c.fe.inText(addr) {
		return fmt.Errorf("store into text at 0x%x (self-modifying code is not supported)", addr)
	}
	c.fe.data(addr, base, in.Imm, store, size)
	if store {
		switch in.F3 {
		case 0:
			c.Mem.StoreByte(addr, byte(c.Regs[in.Rs2]))
		case 1:
			c.Mem.WriteHalf(addr, uint16(c.Regs[in.Rs2]))
		default:
			c.Mem.WriteWord(addr, c.Regs[in.Rs2])
		}
		return nil
	}
	switch in.F3 {
	case rv32.F3LB:
		c.setReg(in.Rd, uint32(int32(int8(c.Mem.LoadByte(addr)))))
	case rv32.F3LBU:
		c.setReg(in.Rd, uint32(c.Mem.LoadByte(addr)))
	case rv32.F3LH:
		c.setReg(in.Rd, uint32(int32(int16(c.Mem.ReadHalf(addr)))))
	case rv32.F3LHU:
		c.setReg(in.Rd, uint32(c.Mem.ReadHalf(addr)))
	default: // F3LW
		c.setReg(in.Rd, c.Mem.ReadWord(addr))
	}
	return nil
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

func (c *RV32CPU) steps(n uint64) (uint64, error) {
	for i := uint64(0); i < n; i++ {
		if err := c.Step(); err != nil {
			return i, err
		}
		if c.Halted {
			return i + 1, nil
		}
	}
	return n, nil
}

func (c *RV32CPU) halted() bool { return c.Halted }
func (c *RV32CPU) pc() uint32   { return c.PC }
