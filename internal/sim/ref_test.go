package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"waymemo/internal/asm"
	"waymemo/internal/isa"
	"waymemo/internal/isa/rv32"
	"waymemo/internal/trace"
)

// The reference cores: each ISA's interpreter written as one Step call
// per instruction with an execute helper per instruction class, the form
// the one-loop interpreters (steps) are tested against. refCPU and refRV32
// wrap a production core, so they share its state and front end; their
// methods shadow the core's own. Their execMem passes the store's size to
// inText, and their at reads a gap slot as outside the table, so it
// decodes from memory.
type (
	refCPU  struct{ *CPU }
	refRV32 struct{ *RV32CPU }
)

// at returns the predecoded instruction at pc, read in place, or nil
// outside the table and in its gaps (the caller then calls decodeMem).
func (f *front[I]) at(pc uint32) *I {
	if i := (pc - f.text.base) / word; i < uint32(len(f.text.instrs)) && !isGap(&f.text.instrs[i]) {
		return &f.text.instrs[i]
	}
	return nil
}

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

// data stages one data event.
func (f *front[I]) data(addr, base uint32, disp int32, store bool, size uint8) {
	if f.dataOn {
		ev := f.st.NextData()
		ev.Addr, ev.Base, ev.Disp, ev.Store, ev.Size = addr, base, disp, store, size
	}
}

// isGap reports whether a table slot holds the gap sentinel.
func isGap(in any) bool {
	switch in := in.(type) {
	case *isa.Instr:
		return in.Op == gapOp
	case *rv32.Instr:
		return in.Op == gapOp
	}
	panic(fmt.Sprintf("isGap: %T", in))
}

// Step executes one instruction.
func (c refCPU) Step() error {
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

func (c refCPU) setReg(r uint8, v uint32) {
	if r != isa.RegZero {
		c.Regs[r] = v
	}
}

func (c refCPU) branchTaken(in *isa.Instr) bool {
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

func (c refCPU) execR(in *isa.Instr) error {
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

func (c refCPU) execF(in *isa.Instr) error {
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

func (c refCPU) execMem(in *isa.Instr) error {
	base := c.Regs[in.Rs]
	addr := base + uint32(in.Imm)
	size := uint8(in.MemBytes())
	if addr%uint32(size) != 0 {
		return fmt.Errorf("unaligned %d-byte access at 0x%x", size, addr)
	}
	store := in.IsStore()
	if store && c.fe.inText(addr, uint32(size)) {
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

func (c refCPU) steps(n uint64) (uint64, error) {
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

func (c refRV32) setReg(r uint8, v uint32) {
	if r != rv32.RegZero {
		c.Regs[r] = v
	}
}

// Step executes one instruction.
func (c refRV32) Step() error {
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

func (c refRV32) branchTaken(in *rv32.Instr) bool {
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

func (c refRV32) aluImm(in *rv32.Instr) uint32 {
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
func (c refRV32) alu(in *rv32.Instr) uint32 {
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

func (c refRV32) execMem(in *rv32.Instr) error {
	base := c.Regs[in.Rs1]
	addr := base + uint32(in.Imm)
	size := uint8(in.MemBytes())
	if addr%uint32(size) != 0 {
		return fmt.Errorf("unaligned %d-byte access at 0x%x", size, addr)
	}
	store := in.IsStore()
	if store && c.fe.inText(addr, uint32(size)) {
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

func (c refRV32) steps(n uint64) (uint64, error) {
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

// refCore is a reference core: runCore drives its steps, one Step per
// instruction.
type refCore interface {
	core
	Step() error
}

// gapAddi42 are the words the gap programs store into their gap: addi
// r1, r0, 42 on FRVL and addi ra, zero, 42 on RV32.
var (
	gapAddi42FRVL = isa.Instr{Op: isa.OpADDI, Rt: 1, Imm: 42}.Encode()
	gapAddi42RV32 = rv32.Instr{Op: rv32.OpOpImm, Rd: rv32.RegRA, F3: rv32.F3ADD, Imm: 42}.Encode()
)

// trapPrograms hold one program per trap of each ISA, the gap programs,
// a jalr whose link overwrites its target register, and a runaway. want
// is a substring of the error, empty for a clean halt.
var trapPrograms = []struct {
	isa  int // index into isaCases
	name string
	src  string
	want string
}{
	{0, "unaligned PC", `
	.org 0x10000
main:	li   t0, 0x10002
	jr   t0
	halt
`, "unaligned PC 0x10002"},
	{0, "unaligned lw", `
	.org 0x10000
main:	li   t0, 0x100001
	lw   t1, 0(t0)
	halt
`, "unaligned 4-byte access at 0x100001"},
	{0, "unaligned sw", `
	.org 0x10000
main:	li   t0, 0x100002
	sw   t1, 0(t0)
	halt
`, "unaligned 4-byte access at 0x100002"},
	{0, "unaligned sh", `
	.org 0x10000
main:	li   t0, 0x100001
	sh   t1, 0(t0)
	halt
`, "unaligned 2-byte access at 0x100001"},
	{0, "unaligned fld", `
	.org 0x10000
main:	li   t0, 0x100004
	fld  f1, 0(t0)
	halt
`, "unaligned 8-byte access at 0x100004"},
	{0, "sw into text", `
	.org 0x10000
main:	la   t0, loop
loop:	sw   t1, 0(t0)
	halt
`, "store into text at 0x10008"},
	{0, "sb into text", `
	.org 0x10000
main:	la   t0, main
	sb   t1, 3(t0)
	halt
`, "store into text at 0x10003"},
	{0, "fsd straddling text", `
	.org 0x10004
main:	li   t0, 0x10000
	fsd  f0, 0(t0)
	halt
`, "store into text at 0x10000"},
	{0, "div by zero", `
	.org 0x10000
main:	li   t0, 1
	div  t1, t0, zero
	halt
`, "integer division by zero"},
	{0, "remu by zero", `
	.org 0x10000
main:	li   t0, 1
	remu t1, t0, zero
	halt
`, "integer division by zero"},
	{0, "illegal opcode in a gap", `
	.org 0x10000
main:	nop
	.word 0x7C000000
	halt
`, "illegal opcode 0x1f"},
	{0, "illegal opcode past text", `
	.org 0x10000
main:	nop
	.word 0x7C000000
`, "illegal opcode 0x1f"},
	{0, "illegal funct", `
	.org 0x10000
main:	nop
	.word 0x0000003F
	halt
`, "illegal funct 0x3f"},
	{0, "illegal float funct", `
	.org 0x10000
main:	nop
	.word 0x0400003F
	halt
`, "illegal float funct 0x3f"},
	{0, "gap word", fmt.Sprintf(`
	.org 0x10000
main:	la   r2, gap
	li   r3, %d
	sw   r3, 0(r2)
	j    gap
	halt
gap:	.word 0
	halt
`, gapAddi42FRVL), ""},
	{0, "jalr linking into its target", `
	.org 0x10000
main:	la   t0, fn
	jalr t0, t0
	halt
fn:	move s1, t0
	halt
`, ""},
	{0, "runaway", `
	.org 0x10000
spin:	b    spin
`, "budget 64 exhausted"},
	{1, "unaligned PC", `
	.org 0x10000
_start:	li   t0, 0x10002
	jr   t0
	ebreak
`, "unaligned PC 0x10002"},
	{1, "unaligned lw", `
	.org 0x10000
_start:	li   t0, 0x100001
	lw   t1, 0(t0)
	ebreak
`, "unaligned 4-byte access at 0x100001"},
	{1, "unaligned lh", `
	.org 0x10000
_start:	li   t0, 0x100001
	lh   t1, 0(t0)
	ebreak
`, "unaligned 2-byte access at 0x100001"},
	{1, "unaligned sw", `
	.org 0x10000
_start:	li   t0, 0x100002
	sw   t1, 0(t0)
	ebreak
`, "unaligned 4-byte access at 0x100002"},
	{1, "sw into text", `
	.org 0x10000
_start:	la   t0, _start
	sw   zero, 4(t0)
	ebreak
`, "store into text at 0x10004"},
	{1, "sh into text", `
	.org 0x10000
_start:	la   t0, _start
	sh   zero, 2(t0)
	ebreak
`, "store into text at 0x10002"},
	{1, "divide by zero", `
	.org 0x10000
_start:	li   t0, 7
	div  t1, t0, zero
	remu t2, t0, zero
	ebreak
`, ""},
	{1, "illegal word in a gap", `
	.org 0x10000
_start:	nop
	.word 0xFFFFFFFF
	ebreak
`, "illegal instruction 0xffffffff"},
	{1, "illegal funct", `
	.org 0x10000
_start:	nop
	.word 0x20000033
	ebreak
`, "illegal instruction 0x20000033"},
	{1, "illegal word past text", `
	.org 0x10000
_start:	nop
	.word 0
`, "illegal instruction 0x00000000"},
	{1, "unsupported ecall", `
	.org 0x10000
_start:	li   a7, 5
	ecall
	ebreak
`, "unsupported ecall 5"},
	{1, "gap word", fmt.Sprintf(`
	.org 0x10000
_start:	la   a2, gap
	li   a3, %d
	sw   a3, 0(a2)
	j    gap
	ebreak
gap:	.word 0
	ebreak
`, gapAddi42RV32), ""},
	{1, "jalr linking into its target", `
	.org 0x10000
_start:	la   t0, fn
	jalr t0, t0
	ebreak
fn:	addi s1, t0, 0
	ebreak
`, ""},
	{1, "runaway", `
	.org 0x10000
spin:	j    spin
`, "budget 64 exhausted"},
}

// runChunks is runCore without the context: it drives c's steps in chunks
// of at most chunk instructions, and fails t if a call's count is not the
// number of instructions it retired.
func runChunks(t *testing.T, c testCore, budget, chunk uint64) error {
	t.Helper()
	for left := budget; !c.halted(); {
		if left == 0 {
			return fmt.Errorf("sim: instruction budget %d exhausted at pc=0x%x", budget, c.pc())
		}
		before := instrs(c)
		n, err := c.steps(min(left, chunk))
		if got := instrs(c) - before; got != n {
			t.Fatalf("steps(%d) returned %d, retired %d", min(left, chunk), n, got)
		}
		if err != nil {
			return err
		}
		left -= n
	}
	return nil
}

// captured runs p on a core with a capture attached and returns the
// capture's WMTRACE4 bytes and the run's error.
func captured(t *testing.T, c testCore, p *asm.Program, run func() error) ([]byte, error) {
	t.Helper()
	var buf trace.Buffer
	st := trace.NewCapture(&buf)
	c.Attach(st)
	c.LoadProgram(p, stackTop)
	err := run()
	st.Flush()
	var w bytes.Buffer
	if _, werr := buf.WriteTo(&w); werr != nil {
		t.Fatal(werr)
	}
	return w.Bytes(), err
}

// TestTrapsMatchReference runs every trap program on both ISAs in chunks
// of 1, 2, 3 and 2^20 instructions: each chunking must leave the
// reference core's error, architectural state, counters and capture.
func TestTrapsMatchReference(t *testing.T) {
	const budget = 64
	for _, tp := range trapPrograms {
		ic := isaCases[tp.isa]
		t.Run(ic.name+"/"+tp.name, func(t *testing.T) {
			p, err := ic.assemble(tp.src)
			if err != nil {
				t.Fatal(err)
			}
			ref := ic.newCore(0)
			refCap, refErr := captured(t, ref, p, func() error {
				return runCore(context.Background(), ic.reference(ref), budget)
			})
			if tp.want == "" && refErr != nil || tp.want != "" && (refErr == nil || !strings.Contains(refErr.Error(), tp.want)) {
				t.Fatalf("reference err %v, want %q", refErr, tp.want)
			}
			for _, chunk := range []uint64{1, 2, 3, 1 << 20} {
				c := ic.newCore(0)
				capture, err := captured(t, c, p, func() error { return runChunks(t, c, budget, chunk) })
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Errorf("chunk %d: err %v, reference %v", chunk, err, refErr)
				}
				if a, b := snapshot(c), snapshot(ref); a != b {
					t.Errorf("chunk %d: state diverged:\n loop      %s\n reference %s", chunk, a, b)
				}
				if !bytes.Equal(capture, refCap) {
					t.Errorf("chunk %d: capture diverged from the reference", chunk)
				}
			}
		})
	}
}

// TestStoreStraddlingTextRejected: a store whose first byte lies before
// the text but whose later bytes overwrite it is a store into text.
func TestStoreStraddlingTextRejected(t *testing.T) {
	p := mustProg(t, `
	.org 0x10004
main:	li   t0, 0x10000
	fsd  f0, 0(t0)
	halt
`)
	c := New()
	c.LoadProgram(p, stackTop)
	first := c.Mem.ReadWord(0x10004)
	err := c.Run(10)
	if err == nil || !strings.Contains(err.Error(), "store into text at 0x10000") {
		t.Fatalf("err = %v, want a store into text", err)
	}
	if got := c.Mem.ReadWord(0x10004); got != first {
		t.Fatalf("text word 0x10004 = %#x, was %#x", got, first)
	}
}

// TestGapWordDecodesFromMemory: a word between text ranges is data, so a
// store may rewrite it, and a jump to it runs what memory holds, not a
// decode taken before the run.
func TestGapWordDecodesFromMemory(t *testing.T) {
	for _, tp := range trapPrograms {
		if tp.name != "gap word" {
			continue
		}
		ic := isaCases[tp.isa]
		p, err := ic.assemble(tp.src)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.TextRanges) != 2 {
			t.Fatalf("%s: text ranges %v, want a gap between two", ic.name, p.TextRanges)
		}
		c := ic.newCore(0)
		c.LoadProgram(p, stackTop)
		if err := c.RunContext(context.Background(), 100); err != nil {
			t.Fatalf("%s: %v", ic.name, err)
		}
		var r1 uint32
		switch c := c.(type) {
		case *CPU:
			r1 = c.Regs[1]
		case *RV32CPU:
			r1 = c.Regs[rv32.RegRA]
		}
		if r1 != 42 {
			t.Errorf("%s: r1 = %d after the gap's addi, want 42", ic.name, r1)
		}
	}
}
