package workloads

// RV32 ports of the paper kernels. Each port is the same algorithm over the
// same data section, validated by the same Go reference Check as its FRVL
// original — the only deltas are the register map (RV32 has t0-t6, so
// FRVL's t7/t8/t9 become a2/a3/a4 and v0/v1 become s10/s11) and the RV32
// shift mnemonics (slli/srai). Together with the rv32:synth:... specs
// (FromSpecRV32), these give the cross-ISA comparison one bit-identical
// ground truth per kernel.

// rv32DCTCode is the RV32 rendering of dctCode: the identical 2-D 8x8
// forward DCT loop nest in Q13 fixed point.
const rv32DCTCode = `
; void main(): DCT of every 8x8 block of the 64x64 image, repeated.
main:	push ra
	li   s9, 2             ; repeats
m_rep:	li   s0, 0             ; by
m_by:	li   s1, 0             ; bx
m_bx:	la   a0, dctImage      ; src = image + by*512 + bx*8
	slli t0, s0, 9
	add  a0, a0, t0
	slli t0, s1, 3
	add  a0, a0, t0
	la   a1, dctOut        ; dst = out + by*1024 + bx*16
	slli t0, s0, 10
	add  a1, a1, t0
	slli t0, s1, 4
	add  a1, a1, t0
	jal  dct_block
	addi s1, s1, 1
	li   a4, 8
	blt  s1, a4, m_bx
	addi s0, s0, 1
	li   a4, 8
	blt  s0, a4, m_by
	addi s9, s9, -1
	bnez s9, m_rep
	pop  ra
	ret

; dct_block(a0 = src bytes stride 64, a1 = dst int16 stride 128B)
dct_block:
	la   s10, dctC
	la   s11, dctTmp
	li   a5, 4096          ; Q13 rounding bias (exceeds the 12-bit addi range)
	; pass 1: tmp = C * (X - 128)
	li   t0, 0             ; u
p1_u:	li   t1, 0             ; x
p1_x:	li   t3, 0             ; sum
	li   t2, 0             ; k
	slli t4, t0, 4         ; &C[u][0]
	add  t4, s10, t4
	add  t5, a0, t1        ; &X[0][x]
p1_k:	lh   t6, 0(t4)
	lbu  a2, 0(t5)
	addi a2, a2, -128
	mul  a3, t6, a2
	add  t3, t3, a3
	addi t4, t4, 2
	addi t5, t5, 64
	addi t2, t2, 1
	li   a4, 8
	blt  t2, a4, p1_k
	add  t3, t3, a5
	srai t3, t3, 13
	slli t6, t0, 5         ; tmp[u*8+x]
	slli a2, t1, 2
	add  t6, t6, a2
	add  t6, s11, t6
	sw   t3, 0(t6)
	addi t1, t1, 1
	li   a4, 8
	blt  t1, a4, p1_x
	addi t0, t0, 1
	li   a4, 8
	blt  t0, a4, p1_u
	; pass 2: out = tmp * C^T
	li   t0, 0             ; u
p2_u:	li   t1, 0             ; v
p2_v:	li   t3, 0
	li   t2, 0
	slli t4, t0, 5         ; &tmp[u][0]
	add  t4, s11, t4
	slli t5, t1, 4         ; &C[v][0]
	add  t5, s10, t5
p2_k:	lw   t6, 0(t4)
	lh   a2, 0(t5)
	mul  a3, t6, a2
	add  t3, t3, a3
	addi t4, t4, 4
	addi t5, t5, 2
	addi t2, t2, 1
	li   a4, 8
	blt  t2, a4, p2_k
	add  t3, t3, a5
	srai t3, t3, 13
	slli t6, t0, 7         ; dst + u*128 + v*2
	slli a2, t1, 1
	add  t6, t6, a2
	add  t6, a1, t6
	sh   t3, 0(t6)
	addi t1, t1, 1
	li   a4, 8
	blt  t1, a4, p2_v
	addi t0, t0, 1
	li   a4, 8
	blt  t0, a4, p2_u
	ret
`

// RV32DCT builds the RV32 port of the DCT benchmark, sharing data section
// and reference Check with DCT().
func RV32DCT() Workload {
	data, check := dctParts()
	return Workload{
		Name:    RV32Prefix + "DCT",
		ISA:     ISARV32,
		Sources: []string{rv32DCTCode, data},
		Check:   check,
	}
}

// RV32All returns the named RV32 kernel ports. Synthetic rv32 workloads are
// unbounded (any "rv32:synth:..." spec) and are not listed here. Like All,
// the slice is the caller's and the workloads' Sources are shared.
func RV32All() []Workload { return values(rv32Table[:]) }
