// custom_asm shows the assembler and simulator as a standalone toolchain:
// a program that insertion-sorts an array, formats numbers in decimal and
// prints them through the console device, run under the full cache+MAB
// simulation.
package main

import (
	"fmt"
	"log"

	"waymemo/internal/asm"
	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/sim"
	"waymemo/internal/trace"
)

const program = `
	.equ N, 64
	.org 0x10000
main:	la   s0, array
	li   s1, 1             ; i
sort_i:	li   t9, N
	bge  s1, t9, sorted
	sll  t0, s1, 2
	add  t0, s0, t0
	lw   t1, 0(t0)         ; key
	addi t2, s1, -1        ; j
ins_l:	bltz t2, ins_done
	sll  t3, t2, 2
	add  t3, s0, t3
	lw   t4, 0(t3)
	ble  t4, t1, ins_done
	sw   t4, 4(t3)
	addi t2, t2, -1
	b    ins_l
ins_done:
	addi t2, t2, 1
	sll  t3, t2, 2
	add  t3, s0, t3
	sw   t1, 0(t3)
	addi s1, s1, 1
	b    sort_i
sorted:	li   s1, 0             ; print the first 8 values
prt_l:	sll  t0, s1, 2
	la   t1, array
	add  t1, t1, t0
	lw   a0, 0(t1)
	jal  print_dec
	li   a0, ' '
	outb a0
	addi s1, s1, 1
	li   t9, 8
	blt  s1, t9, prt_l
	li   a0, '\n'
	outb a0
	halt

; print_dec(a0): unsigned decimal to the console
print_dec:
	li   t0, 10
	li   t1, 0             ; digit count
pd_div:	remu t2, a0, t0
	divu a0, a0, t0
	addi t2, t2, '0'
	push t2
	addi t1, t1, 1
	bnez a0, pd_div
pd_out:	pop  t2
	outb t2
	addi t1, t1, -1
	bnez t1, pd_out
	ret

	.org 0x100000
array:	.word 19, 3, 84, 1, 77, 23, 5, 64, 12, 90, 45, 2, 31, 8, 55, 27
	.word 70, 14, 99, 6, 41, 36, 50, 11, 62, 29, 88, 17, 4, 73, 58, 20
	.word 95, 9, 66, 33, 48, 15, 81, 25, 7, 52, 38, 92, 18, 60, 13, 44
	.word 86, 21, 69, 10, 97, 30, 56, 16, 75, 40, 26, 63, 35, 83, 22, 49
`

func main() {
	prog, err := asm.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}
	geo := cache.FRV32K
	d := core.NewDController(geo, core.DefaultD)
	i := core.NewIController(geo, core.DefaultI)
	// The stager delivers the simulator's events to the controllers in
	// blocks; Flush hands over the last partial block once the run is done.
	st := trace.NewStager([]trace.SinkPair{{Data: d}, {Fetch: i}})
	cpu := sim.New()
	cpu.Attach(st)
	cpu.LoadProgram(prog, 0x001F0000)
	if err := cpu.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	st.Flush()
	fmt.Printf("console: %s", string(cpu.Console))
	fmt.Printf("instructions: %d, cycles: %d\n", cpu.Instrs, cpu.Cycles)
	fmt.Printf("D: tags/access %.3f  ways/access %.3f  MAB hit %.1f%%\n",
		d.Stats.TagsPerAccess(), d.Stats.WaysPerAccess(), d.Stats.MABHitRate()*100)
	fmt.Printf("I: tags/access %.3f  ways/access %.3f  MAB hit %.1f%%\n",
		i.Stats.TagsPerAccess(), i.Stats.WaysPerAccess(), i.Stats.MABHitRate()*100)
}
