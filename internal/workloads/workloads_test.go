package workloads

import (
	"sync"
	"testing"

	"waymemo/internal/asm"
	"waymemo/internal/trace"
)

// TestAllWorkloadsValidate runs every benchmark to completion and checks its
// output against the Go reference — the end-to-end proof that the ISA,
// assembler, simulator and the benchmark programs agree.
func TestAllWorkloadsValidate(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c, err := Run(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.Instrs < 100_000 {
				t.Errorf("%s retired only %d instructions; too small to be representative", w.Name, c.Instrs)
			}
			t.Logf("%s: %d instrs, %d cycles", w.Name, c.Instrs, c.Cycles)
		})
	}
}

// TestWorkloadEventStreams checks that every benchmark produces both fetch
// and data traffic with plausible structure.
func TestWorkloadEventStreams(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var nFetch, nData, nStore, nLink uint64
			c, err := Run(w, trace.NewStager([]trace.SinkPair{{
				Fetch: trace.FetchFunc(func(ev trace.FetchEvent) {
					nFetch += uint64(ev.NumPackets())
					if ev.Kind == trace.KindLink {
						nLink++
					}
				}),
				Data: trace.DataFunc(func(ev trace.DataEvent) {
					nData++
					if ev.Store {
						nStore++
					}
					if ev.Base+uint32(ev.Disp) != ev.Addr {
						t.Fatalf("base+disp != addr in %s", w.Name)
					}
				}),
			}}))
			if err != nil {
				t.Fatal(err)
			}
			if nFetch != c.Cycles {
				t.Errorf("fetch packets %d != cycles %d", nFetch, c.Cycles)
			}
			if nData == 0 || nStore == 0 {
				t.Errorf("no data traffic: loads+stores=%d stores=%d", nData, nStore)
			}
			if nLink == 0 {
				t.Errorf("no function returns observed")
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("dct"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// TestBuildMemoized checks that Build assembles once per process and that
// concurrent builders all receive the same shared program.
func TestBuildMemoized(t *testing.T) {
	w := DCT()
	first, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]*asm.Program, 8)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := DCT().Build()
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p != first {
			t.Fatalf("builder %d got a distinct program", i)
		}
	}
	if DCT().Fingerprint() != w.Fingerprint() {
		t.Fatal("fingerprint not stable across constructions")
	}
	if DCT().Fingerprint() == FFT().Fingerprint() {
		t.Fatal("distinct workloads share a fingerprint")
	}
}
