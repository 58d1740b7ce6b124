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
// Events are not sent one at a time. Each core has one interpreter loop,
// which writes each event's fields straight into the current block of the
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

// LoadProgram loads an assembled program image and predecodes its text
// from the loaded memory. The PC is set to the program entry and the stack
// pointer to sp.
func (c *CPU) LoadProgram(p *asm.Program, sp uint32) {
	if c.Mem == nil {
		c.Mem = mem.New()
	}
	c.fe.load(p, c.Mem, isa.Decode, isa.Instr{Op: gapOp})
	c.PC = p.Entry
	c.Regs[isa.RegSP] = sp
}

// Step executes one instruction.
func (c *CPU) Step() error {
	_, err := c.steps(1)
	return err
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
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

// trap wraps a fault of the instruction in at pc with its disassembly.
func (c *CPU) trap(pc uint32, in *isa.Instr, err error) error {
	return fmt.Errorf("sim: pc=0x%x %s: %w", pc, isa.Disassemble(*in, pc), err)
}

// steps is the FRVL interpreter, the only one: Step is steps(1). It
// executes up to n instructions, stopping early at a halt or a trap, and
// returns how many retired. Per instruction, all inline:
//
//   - The PC lives in a local and the retired count in i. Both are written
//     back at every exit, so a trap leaves the PC at the faulting
//     instruction and the counters of the instructions before it.
//   - A new fetch packet counts a cycle. A packet that control fell through
//     to extends the open run: the stager hands a block over only when its
//     next slot is asked for, so the run's slot is still the front's to
//     write. Any other packet, and a fall-through after a full run of
//     MaxRun+1 packets, goes out of line to stage a run of its own. An open
//     run implies fetchOn, since only stage opens one.
//   - The instruction is read in place from the shared table: a 16-byte
//     isa.Instr copied by value costs a store, then loads that wait on
//     store forwarding, the stall IController.OnFetchBatch describes. A PC
//     outside the table or in one of its gaps (gapOp) decodes from memory.
//   - Each load and store is its own case, so its size is a constant.
//   - A write to r0 is undone after the instruction instead of being
//     tested for.
func (c *CPU) steps(n uint64) (uint64, error) {
	if c.Halted || n == 0 {
		return 0, nil
	}
	f := &c.fe
	if !f.ready {
		if err := f.gate(c.PC, c.PacketBytes, isa.PacketBytes); err != nil {
			return 0, err
		}
	}
	r, fr, m := &c.Regs, &c.FRegs, c.Mem
	instrs, base := f.text.instrs, f.text.base
	pc := c.PC
	var i uint64
	var err error
loop:
	for ; i < n; i++ {
		if pc%word != 0 {
			err = f.gate(pc, c.PacketBytes, isa.PacketBytes)
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
		var in *isa.Instr
		if k := (pc - base) / word; k < uint32(len(instrs)) {
			in = &instrs[k]
		} else {
			in = f.decodeMem(pc, m, isa.Decode)
		}
		next := pc + isa.Word
	dispatch:
		switch in.Op {
		case isa.OpR:
			rs, rt := r[in.Rs], r[in.Rt]
			switch in.Funct {
			case isa.FnSLL:
				r[in.Rd] = rt << in.Shamt
			case isa.FnSRL:
				r[in.Rd] = rt >> in.Shamt
			case isa.FnSRA:
				r[in.Rd] = uint32(int32(rt) >> in.Shamt)
			case isa.FnSLLV:
				r[in.Rd] = rt << (rs & 31)
			case isa.FnSRLV:
				r[in.Rd] = rt >> (rs & 31)
			case isa.FnSRAV:
				r[in.Rd] = uint32(int32(rt) >> (rs & 31))
			case isa.FnADD:
				r[in.Rd] = rs + rt
			case isa.FnSUB:
				r[in.Rd] = rs - rt
			case isa.FnAND:
				r[in.Rd] = rs & rt
			case isa.FnOR:
				r[in.Rd] = rs | rt
			case isa.FnXOR:
				r[in.Rd] = rs ^ rt
			case isa.FnNOR:
				r[in.Rd] = ^(rs | rt)
			case isa.FnSLT:
				r[in.Rd] = b2u(int32(rs) < int32(rt))
			case isa.FnSLTU:
				r[in.Rd] = b2u(rs < rt)
			case isa.FnMUL:
				r[in.Rd] = rs * rt
			case isa.FnMULH:
				r[in.Rd] = uint32(uint64(int64(int32(rs))*int64(int32(rt))) >> 32)
			case isa.FnMULHU:
				r[in.Rd] = uint32(uint64(rs) * uint64(rt) >> 32)
			case isa.FnDIV, isa.FnDIVU, isa.FnREM, isa.FnREMU:
				if rt == 0 {
					err = c.trap(pc, in, fmt.Errorf("integer division by zero"))
					break loop
				}
				r[in.Rd] = divide(in.Funct, rs, rt)
			case isa.FnJR, isa.FnJALR:
				if in.Funct == isa.FnJALR {
					r[in.Rd] = pc + isa.Word
				}
				kind := trace.KindIndirect
				if in.Rs == isa.RegRA {
					kind = trace.KindLink
				}
				f.pend(kind, rs, 0)
				next = rs
			default:
				err = c.trap(pc, in, fmt.Errorf("illegal funct 0x%x", in.Funct))
				break loop
			}
		case isa.OpF:
			fs, ft := fr[in.Rs], fr[in.Rt]
			switch in.Funct {
			case isa.FnFADD:
				fr[in.Rd] = fs + ft
			case isa.FnFSUB:
				fr[in.Rd] = fs - ft
			case isa.FnFMUL:
				fr[in.Rd] = fs * ft
			case isa.FnFDIV:
				fr[in.Rd] = fs / ft
			case isa.FnFSQRT:
				fr[in.Rd] = math.Sqrt(fs)
			case isa.FnFABS:
				fr[in.Rd] = math.Abs(fs)
			case isa.FnFNEG:
				fr[in.Rd] = -fs
			case isa.FnFMOV:
				fr[in.Rd] = fs
			case isa.FnFCVTDW:
				fr[in.Rd] = float64(int32(r[in.Rs]))
			case isa.FnFCVTWD:
				r[in.Rd] = uint32(clampToInt32(fs))
			case isa.FnFCEQ:
				r[in.Rd] = b2u(fs == ft)
			case isa.FnFCLT:
				r[in.Rd] = b2u(fs < ft)
			case isa.FnFCLE:
				r[in.Rd] = b2u(fs <= ft)
			default:
				err = c.trap(pc, in, fmt.Errorf("illegal float funct 0x%x", in.Funct))
				break loop
			}
		case isa.OpJ:
			next = f.branch(pc, in.Off26)
		case isa.OpJAL:
			r[isa.RegRA] = pc + isa.Word
			next = f.branch(pc, in.Off26)
		case isa.OpBEQ:
			if r[in.Rs] == r[in.Rt] {
				next = f.branch(pc, in.Imm)
			}
		case isa.OpBNE:
			if r[in.Rs] != r[in.Rt] {
				next = f.branch(pc, in.Imm)
			}
		case isa.OpBLT:
			if int32(r[in.Rs]) < int32(r[in.Rt]) {
				next = f.branch(pc, in.Imm)
			}
		case isa.OpBGE:
			if int32(r[in.Rs]) >= int32(r[in.Rt]) {
				next = f.branch(pc, in.Imm)
			}
		case isa.OpBLTU:
			if r[in.Rs] < r[in.Rt] {
				next = f.branch(pc, in.Imm)
			}
		case isa.OpBGEU:
			if r[in.Rs] >= r[in.Rt] {
				next = f.branch(pc, in.Imm)
			}
		case isa.OpADDI:
			r[in.Rt] = r[in.Rs] + uint32(in.Imm)
		case isa.OpSLTI:
			r[in.Rt] = b2u(int32(r[in.Rs]) < in.Imm)
		case isa.OpSLTIU:
			r[in.Rt] = b2u(r[in.Rs] < uint32(in.Imm))
		case isa.OpANDI:
			r[in.Rt] = r[in.Rs] & uint32(uint16(in.Imm))
		case isa.OpORI:
			r[in.Rt] = r[in.Rs] | uint32(uint16(in.Imm))
		case isa.OpXORI:
			r[in.Rt] = r[in.Rs] ^ uint32(uint16(in.Imm))
		case isa.OpLUI:
			r[in.Rt] = uint32(uint16(in.Imm)) << 16
		case isa.OpLB:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
			if f.dataOn {
				*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 1}
			}
			r[in.Rt] = uint32(int32(int8(m.LoadByte(addr))))
		case isa.OpLBU:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
			if f.dataOn {
				*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 1}
			}
			r[in.Rt] = uint32(m.LoadByte(addr))
		case isa.OpLH:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
			if addr%2 != 0 {
				err = c.trap(pc, in, unaligned(2, addr))
				break loop
			}
			if f.dataOn {
				*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 2}
			}
			r[in.Rt] = uint32(int32(int16(m.ReadHalf(addr))))
		case isa.OpLHU:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
			if addr%2 != 0 {
				err = c.trap(pc, in, unaligned(2, addr))
				break loop
			}
			if f.dataOn {
				*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 2}
			}
			r[in.Rt] = uint32(m.ReadHalf(addr))
		case isa.OpLW:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
			if addr%4 != 0 {
				err = c.trap(pc, in, unaligned(4, addr))
				break loop
			}
			if f.dataOn {
				*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 4}
			}
			r[in.Rt] = m.ReadWord(addr)
		case isa.OpFLD:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
			if addr%8 != 0 {
				err = c.trap(pc, in, unaligned(8, addr))
				break loop
			}
			if f.dataOn {
				*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Size: 8}
			}
			fr[in.Rt] = math.Float64frombits(m.ReadDouble(addr))
		case isa.OpSB:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
			if f.inText(addr, 1) {
				err = c.trap(pc, in, storeIntoText(addr))
				break loop
			}
			if f.dataOn {
				*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Store: true, Size: 1}
			}
			m.StoreByte(addr, byte(r[in.Rt]))
		case isa.OpSH:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
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
			m.WriteHalf(addr, uint16(r[in.Rt]))
		case isa.OpSW:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
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
			m.WriteWord(addr, r[in.Rt])
		case isa.OpFSD:
			b := r[in.Rs]
			addr := b + uint32(in.Imm)
			if addr%8 != 0 {
				err = c.trap(pc, in, unaligned(8, addr))
				break loop
			}
			if f.inText(addr, 8) {
				err = c.trap(pc, in, storeIntoText(addr))
				break loop
			}
			if f.dataOn {
				*f.st.NextData() = trace.DataEvent{Addr: addr, Base: b, Disp: in.Imm, Store: true, Size: 8}
			}
			m.WriteDouble(addr, math.Float64bits(fr[in.Rt]))
		case isa.OpOUTB:
			c.Console = append(c.Console, byte(r[in.Rs]))
		case isa.OpHALT:
			c.Halted = true
			i++
			break loop
		default:
			if in.Op == gapOp {
				in = f.decodeMem(pc, m, isa.Decode)
				goto dispatch
			}
			err = fmt.Errorf("sim: pc=0x%x: illegal opcode 0x%x", pc, in.Op)
			break loop
		}
		r[isa.RegZero] = 0
		pc = next
	}
	c.PC = pc
	c.Instrs += i
	return i, err
}

// divide is the quotient or remainder funct of rs by a nonzero rt; the
// signed overflow case wraps.
func divide(funct uint8, rs, rt uint32) uint32 {
	overflow := int32(rs) == math.MinInt32 && int32(rt) == -1
	switch funct {
	case isa.FnDIV:
		if overflow {
			return rs
		}
		return uint32(int32(rs) / int32(rt))
	case isa.FnDIVU:
		return rs / rt
	case isa.FnREM:
		if overflow {
			return 0
		}
		return uint32(int32(rs) % int32(rt))
	}
	return rs % rt
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

func (c *CPU) halted() bool { return c.Halted }
func (c *CPU) pc() uint32   { return c.PC }
