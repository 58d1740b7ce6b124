// dcache_stream drives the way-memoized D-cache controller directly with
// synthetic access streams (no CPU needed) and shows how the MAB hit rate
// reacts to the two properties the paper's §3.1 exploits: displacement
// magnitude and base-register locality.
package main

import (
	"fmt"
	"math/rand"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/trace"
)

// stencil generates a 2-D 5-point stencil sweep the way a compiler emits
// it: one base register pointing at the window's corner and small positive
// displacements for the five taps — the friendly case for the MAB (§3.1:
// few base regions, one displacement sign, strong line locality).
func stencil(send func(trace.DataEvent), rows, cols int) {
	src := uint32(0x100000)
	dst := uint32(0x102000)
	north := int32(4)
	west := int32(cols * 4)
	center := int32(cols*4 + 4)
	east := int32(cols*4 + 8)
	south := int32(2*cols*4 + 4)
	for r := 1; r < rows-1; r++ {
		for c := 1; c < cols-1; c++ {
			base := src + uint32(((r-1)*cols+c-1)*4)
			for _, disp := range []int32{north, west, center, east, south} {
				send(trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp, Size: 4})
			}
			dbase := dst + uint32((r*cols+c)*4)
			send(trace.DataEvent{Addr: dbase, Base: dbase, Disp: 0, Store: true, Size: 4})
		}
	}
}

// pointerChase generates random-walk accesses across a large region — the
// adversarial case: bases rarely repeat and set indices are random.
func pointerChase(send func(trace.DataEvent), n int) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		base := uint32(0x100000 + r.Intn(1<<20)&^3)
		send(trace.DataEvent{Addr: base, Base: base, Disp: 0, Size: 4})
	}
}

// largeDisp uses one base register with displacements beyond the 14-bit
// adder's reach, forcing MAB bypasses.
func largeDisp(send func(trace.DataEvent), n int) {
	base := uint32(0x100000)
	for i := 0; i < n; i++ {
		disp := int32(20000 + (i%8)*4) // >= 2^14: out of range
		send(trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp, Size: 4})
	}
}

func run(name string, gen func(func(trace.DataEvent))) {
	var evs []trace.DataEvent
	gen(func(ev trace.DataEvent) { evs = append(evs, ev) })
	d := core.NewDController(cache.FRV32K, core.DefaultD)
	d.OnDataBatch(evs)
	s := d.Stats
	fmt.Printf("%-14s accesses %8d  MAB hit %5.1f%%  bypass %5.1f%%  tags/access %.3f  ways/access %.3f\n",
		name, s.Accesses, s.MABHitRate()*100,
		float64(s.MABBypasses)/float64(s.Accesses)*100,
		s.TagsPerAccess(), s.WaysPerAccess())
}

func main() {
	fmt.Println("way-memoized D-cache (2x8 MAB) under three synthetic streams:")
	fmt.Println()
	run("stencil", func(send func(trace.DataEvent)) { stencil(send, 64, 64) })
	run("pointer-chase", func(send func(trace.DataEvent)) { pointerChase(send, 20000) })
	run("large-disp", func(send func(trace.DataEvent)) { largeDisp(send, 20000) })
	fmt.Println()
	fmt.Println("the stencil keeps both MAB tables hot (two base regions, few lines);")
	fmt.Println("the pointer chase defeats the set-index table; large displacements")
	fmt.Println("bypass the MAB entirely, as in §3.1 of the paper.")
}
