// Package sim implements the instruction-set simulators: the FRVL core that
// stands in for the FR-V of the paper, and an RV32IM core behind the same
// trace contract.
//
// A core executes one fetch packet per cycle (8-byte VLIW packets on FRVL,
// one 4-byte instruction on RV32) and stages two event streams for the
// attached memory-hierarchy models:
//
//   - a FetchEvent whenever the fetch packet changes, classified by how
//     control arrived (sequential, taken branch with its base+offset, jump to
//     the link register, or an unpredictable indirect jump), and
//   - a DataEvent for every load and store, carrying the base register value
//     and the sign-extended displacement in addition to the effective
//     address.
//
// This matches the information available at the address-generation stage of
// the pipeline, which is exactly what the paper's Memory Address Buffer
// consumes (Figures 1 and 2).
//
// Events are not sent one at a time. Both cores share one front end, which
// writes each event's fields straight into the current block of the
// trace.Stager attached with Attach; the stager hands whole blocks to the
// cache models, or, for a capture, to a trace.Buffer. A core with no stager
// attached runs without building any event.
package sim

import (
	"context"
	"fmt"
	"math"

	"waymemo/internal/asm"
	"waymemo/internal/isa"
	"waymemo/internal/mem"
	"waymemo/internal/trace"
)

// CPU is one FRVL core with its memory.
type CPU struct {
	Mem   *mem.Memory
	Regs  [isa.NumRegs]uint32
	FRegs [isa.NumRegs]float64
	PC    uint32

	// Halted is set by the halt instruction.
	Halted bool
	// Console accumulates bytes written by outb.
	Console []byte

	// Instrs counts executed instructions; Cycles counts fetch packets
	// (the 2-issue core fetches one packet per cycle).
	Instrs uint64
	Cycles uint64

	// PacketBytes overrides the fetch packet size for ablation studies;
	// zero selects isa.PacketBytes (8). It must pass CheckPacketBytes, and
	// is read when the first instruction runs.
	PacketBytes uint32

	fe front[isa.Instr]
}

// New returns a CPU with a fresh memory.
func New() *CPU {
	return &CPU{Mem: mem.New()}
}

// Attach routes the CPU's events into st, which the caller flushes once
// the run has succeeded. A nil st detaches: the CPU then builds no events.
func (c *CPU) Attach(st *trace.Stager) { c.fe.attach(st) }

// LoadProgram loads an assembled program image and attaches the program's
// shared predecoded instruction table. The PC is set to the program entry
// and the stack pointer to sp.
func (c *CPU) LoadProgram(p *asm.Program, sp uint32) {
	if c.Mem == nil {
		c.Mem = mem.New()
	}
	c.fe.load(p, c.Mem, "frvl", isa.Decode)
	c.PC = p.Entry
	c.Regs[isa.RegSP] = sp
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.Halted {
		return nil
	}
	if c.PC%word != 0 || !c.fe.ready {
		if err := c.fe.gate(c.PC, c.PacketBytes, isa.PacketBytes); err != nil {
			return err
		}
	}
	c.fe.fetch(c.PC, &c.Cycles)
	in := c.fe.at(c.PC)
	if in == nil {
		in = c.fe.decodeMem(c.PC, c.Mem, isa.Decode)
	}
	nextPC := c.PC + isa.Word
	switch in.Op {
	case isa.OpR:
		if err := c.execR(in); err != nil {
			return fmt.Errorf("sim: pc=0x%x %s: %w", c.PC, isa.Disassemble(*in, c.PC), err)
		}
		switch in.Funct {
		case isa.FnJR, isa.FnJALR:
			target := c.Regs[in.Rs]
			if in.Funct == isa.FnJALR {
				c.setReg(in.Rd, c.PC+isa.Word)
			}
			kind := trace.KindIndirect
			if in.Rs == isa.RegRA {
				kind = trace.KindLink
			}
			c.fe.pend(kind, target, 0)
			nextPC = target
		}
	case isa.OpF:
		if err := c.execF(in); err != nil {
			return fmt.Errorf("sim: pc=0x%x %s: %w", c.PC, isa.Disassemble(*in, c.PC), err)
		}
	case isa.OpJ, isa.OpJAL:
		if in.Op == isa.OpJAL {
			c.setReg(isa.RegRA, c.PC+isa.Word)
		}
		nextPC = uint32(int64(c.PC) + int64(in.Off26))
		c.fe.pend(trace.KindBranch, c.PC, in.Off26)
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		if c.branchTaken(in) {
			nextPC = uint32(int64(c.PC) + int64(in.Imm))
			c.fe.pend(trace.KindBranch, c.PC, in.Imm)
		}
	case isa.OpADDI:
		c.setReg(in.Rt, c.Regs[in.Rs]+uint32(in.Imm))
	case isa.OpSLTI:
		c.setReg(in.Rt, b2u(int32(c.Regs[in.Rs]) < in.Imm))
	case isa.OpSLTIU:
		c.setReg(in.Rt, b2u(c.Regs[in.Rs] < uint32(in.Imm)))
	case isa.OpANDI:
		c.setReg(in.Rt, c.Regs[in.Rs]&uint32(uint16(in.Imm)))
	case isa.OpORI:
		c.setReg(in.Rt, c.Regs[in.Rs]|uint32(uint16(in.Imm)))
	case isa.OpXORI:
		c.setReg(in.Rt, c.Regs[in.Rs]^uint32(uint16(in.Imm)))
	case isa.OpLUI:
		c.setReg(in.Rt, uint32(uint16(in.Imm))<<16)
	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU, isa.OpFLD,
		isa.OpSB, isa.OpSH, isa.OpSW, isa.OpFSD:
		if err := c.execMem(in); err != nil {
			return fmt.Errorf("sim: pc=0x%x %s: %w", c.PC, isa.Disassemble(*in, c.PC), err)
		}
	case isa.OpOUTB:
		c.Console = append(c.Console, byte(c.Regs[in.Rs]))
	case isa.OpHALT:
		c.Halted = true
	default:
		return fmt.Errorf("sim: pc=0x%x: illegal opcode 0x%x", c.PC, in.Op)
	}
	c.Instrs++
	if !c.Halted {
		c.PC = nextPC
	}
	return nil
}

func (c *CPU) setReg(r uint8, v uint32) {
	if r != isa.RegZero {
		c.Regs[r] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (c *CPU) branchTaken(in *isa.Instr) bool {
	a, b := c.Regs[in.Rs], c.Regs[in.Rt]
	switch in.Op {
	case isa.OpBEQ:
		return a == b
	case isa.OpBNE:
		return a != b
	case isa.OpBLT:
		return int32(a) < int32(b)
	case isa.OpBGE:
		return int32(a) >= int32(b)
	case isa.OpBLTU:
		return a < b
	case isa.OpBGEU:
		return a >= b
	}
	return false
}

func (c *CPU) execR(in *isa.Instr) error {
	rs, rt := c.Regs[in.Rs], c.Regs[in.Rt]
	var v uint32
	switch in.Funct {
	case isa.FnSLL:
		v = rt << in.Shamt
	case isa.FnSRL:
		v = rt >> in.Shamt
	case isa.FnSRA:
		v = uint32(int32(rt) >> in.Shamt)
	case isa.FnSLLV:
		v = rt << (rs & 31)
	case isa.FnSRLV:
		v = rt >> (rs & 31)
	case isa.FnSRAV:
		v = uint32(int32(rt) >> (rs & 31))
	case isa.FnADD:
		v = rs + rt
	case isa.FnSUB:
		v = rs - rt
	case isa.FnAND:
		v = rs & rt
	case isa.FnOR:
		v = rs | rt
	case isa.FnXOR:
		v = rs ^ rt
	case isa.FnNOR:
		v = ^(rs | rt)
	case isa.FnSLT:
		v = b2u(int32(rs) < int32(rt))
	case isa.FnSLTU:
		v = b2u(rs < rt)
	case isa.FnMUL:
		v = rs * rt
	case isa.FnMULH:
		v = uint32(uint64(int64(int32(rs))*int64(int32(rt))) >> 32)
	case isa.FnMULHU:
		v = uint32(uint64(rs) * uint64(rt) >> 32)
	case isa.FnDIV:
		if rt == 0 {
			return fmt.Errorf("integer division by zero")
		}
		if int32(rs) == math.MinInt32 && int32(rt) == -1 {
			v = rs
		} else {
			v = uint32(int32(rs) / int32(rt))
		}
	case isa.FnDIVU:
		if rt == 0 {
			return fmt.Errorf("integer division by zero")
		}
		v = rs / rt
	case isa.FnREM:
		if rt == 0 {
			return fmt.Errorf("integer division by zero")
		}
		if int32(rs) == math.MinInt32 && int32(rt) == -1 {
			v = 0
		} else {
			v = uint32(int32(rs) % int32(rt))
		}
	case isa.FnREMU:
		if rt == 0 {
			return fmt.Errorf("integer division by zero")
		}
		v = rs % rt
	case isa.FnJR, isa.FnJALR:
		return nil // handled by Step
	default:
		return fmt.Errorf("illegal funct 0x%x", in.Funct)
	}
	c.setReg(in.Rd, v)
	return nil
}

func (c *CPU) execF(in *isa.Instr) error {
	fs, ft := c.FRegs[in.Rs], c.FRegs[in.Rt]
	switch in.Funct {
	case isa.FnFADD:
		c.FRegs[in.Rd] = fs + ft
	case isa.FnFSUB:
		c.FRegs[in.Rd] = fs - ft
	case isa.FnFMUL:
		c.FRegs[in.Rd] = fs * ft
	case isa.FnFDIV:
		c.FRegs[in.Rd] = fs / ft
	case isa.FnFSQRT:
		c.FRegs[in.Rd] = math.Sqrt(fs)
	case isa.FnFABS:
		c.FRegs[in.Rd] = math.Abs(fs)
	case isa.FnFNEG:
		c.FRegs[in.Rd] = -fs
	case isa.FnFMOV:
		c.FRegs[in.Rd] = fs
	case isa.FnFCVTDW:
		c.FRegs[in.Rd] = float64(int32(c.Regs[in.Rs]))
	case isa.FnFCVTWD:
		c.setReg(in.Rd, uint32(clampToInt32(fs)))
	case isa.FnFCEQ:
		c.setReg(in.Rd, b2u(fs == ft))
	case isa.FnFCLT:
		c.setReg(in.Rd, b2u(fs < ft))
	case isa.FnFCLE:
		c.setReg(in.Rd, b2u(fs <= ft))
	default:
		return fmt.Errorf("illegal float funct 0x%x", in.Funct)
	}
	return nil
}

func clampToInt32(f float64) int32 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	}
	return int32(f)
}

func (c *CPU) execMem(in *isa.Instr) error {
	base := c.Regs[in.Rs]
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
	switch in.Op {
	case isa.OpLB:
		c.setReg(in.Rt, uint32(int32(int8(c.Mem.LoadByte(addr)))))
	case isa.OpLBU:
		c.setReg(in.Rt, uint32(c.Mem.LoadByte(addr)))
	case isa.OpLH:
		c.setReg(in.Rt, uint32(int32(int16(c.Mem.ReadHalf(addr)))))
	case isa.OpLHU:
		c.setReg(in.Rt, uint32(c.Mem.ReadHalf(addr)))
	case isa.OpLW:
		c.setReg(in.Rt, c.Mem.ReadWord(addr))
	case isa.OpFLD:
		c.FRegs[in.Rt] = math.Float64frombits(c.Mem.ReadDouble(addr))
	case isa.OpSB:
		c.Mem.StoreByte(addr, byte(c.Regs[in.Rt]))
	case isa.OpSH:
		c.Mem.WriteHalf(addr, uint16(c.Regs[in.Rt]))
	case isa.OpSW:
		c.Mem.WriteWord(addr, c.Regs[in.Rt])
	case isa.OpFSD:
		c.Mem.WriteDouble(addr, math.Float64bits(c.FRegs[in.Rt]))
	}
	return nil
}

// Run executes until halt or until maxInstrs instructions have retired
// without a halt, which is reported as an error, since it almost always
// means a runaway program.
func (c *CPU) Run(maxInstrs uint64) error {
	return c.RunContext(context.Background(), maxInstrs)
}

// RunContext is Run with cancellation, checked between instruction chunks.
func (c *CPU) RunContext(ctx context.Context, maxInstrs uint64) error {
	return runCore(ctx, c, maxInstrs)
}

func (c *CPU) steps(n uint64) (uint64, error) {
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

func (c *CPU) halted() bool { return c.Halted }
func (c *CPU) pc() uint32   { return c.PC }
