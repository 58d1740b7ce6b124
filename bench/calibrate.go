package main

import (
	"sync"
	"time"
)

// On a shared 2-vCPU virtual machine, a fixed CPU loop timed once a second
// read anywhere from 34 to 65 iterations over 90 seconds, and its speed
// drifted by a third over minutes. The VM reports no steal time, and thread
// CPU time moves with wall time, so the neighbours slow the CPU rather than
// deschedule it, and CPU time cannot take the place of wall time. To take
// that drift out, every set-up and every timed repeat is bracketed by a
// calibration: a fixed kernel that calls no code of this repository, run on
// every worker. Times are scaled by calRef over the calibration time, so
// the end-to-end metrics read as they would on a host whose calibration
// takes calRef. A slower repository still reads slower, since the kernel
// does not run its code.
//
// That holds only if nothing of the repository runs beside the kernel. A
// calibration must therefore follow a quiesce (main.go): a garbage
// collection still marking, or a daemon still serving, would slow the
// kernel, lower the scale and so hide the very regression that left the
// work behind.
//
// Both versions were computed from the same runs. In one batch of ten runs
// per workload (seeds 1-10), scaling narrowed the interquartile spread of
// points_per_s from 32% to 12% on geo-sweep and from 20% to 3% on
// paper-live; in another, from 35% to 8% on synth-capture. In calm
// batches it can widen a spread by a few points. Other kernels did no
// better: an ALU-only loop, a sequential stream over 32 MiB, their
// products with this one, and one median of kernel samples per run each
// won on some workloads and lost on others, and a kernel over a table
// larger than L2 swung twice as far as the workloads did.

// calRef is the calibration time the scaled metrics are quoted at: about
// the kernel's time on the virtual machine above.
const calRef = 50 * time.Millisecond

// calWorker is one worker's calibration state: an L1-sized "program" for
// an interpreter-style dispatch loop (like the simulator's) and a 1 MiB
// table for random read-modify-writes (like trace decode and the
// controllers' arrays).
type calWorker struct {
	prog  [1 << 12]uint32
	table [1 << 18]uint32
	sink  uint64
}

func (w *calWorker) run() {
	x := uint64(88172645463325252)
	var acc uint64
	pc := 0
	for i := 0; i < 6_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(w.table)-1)
		if x&3 == 0 {
			w.table[j] += uint32(i)
		} else {
			acc += uint64(w.table[j])
		}
		op := w.prog[pc&(len(w.prog)-1)]
		switch op & 7 {
		case 0, 1:
			acc += uint64(op)
			pc++
		case 2, 3:
			w.prog[(pc+int(op>>3))&(len(w.prog)-1)] ^= uint32(acc)
			pc += 2
		case 4:
			pc += int(op >> 5)
		default:
			w.prog[pc&(len(w.prog)-1)] = uint32(x)
			pc += 3
		}
	}
	w.sink += acc + x
}

// calibrator times the kernel on par workers at once.
type calibrator struct {
	workers []calWorker
}

func newCalibrator(par int) *calibrator {
	return &calibrator{workers: make([]calWorker, par)}
}

// measure is the faster of two kernel runs. A single run is itself noisy:
// in one pair of back-to-back runs in ten, the slower took a fifth longer
// than the faster, a burst the workload around it need not share. Over
// three batches of six to ten runs per workload, taking the faster of two
// narrowed 19 of the 30 spreads of a time metric, widened 8, and cut the
// widest from 31% to 22%.
func (c *calibrator) measure() time.Duration {
	return min(c.once(), c.once())
}

func (c *calibrator) once() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.workers[i].run()
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// scale is the factor that quotes a time measured between two calibrations
// at the reference speed.
func scale(before, after time.Duration) float64 {
	return 2 * float64(calRef) / float64(before+after)
}
