package workloads

import (
	"os"
	"os/exec"
	"slices"
	"strings"
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

// TestByName pins the names ByName accepts, case-folded, and the sorted
// name list its errors give, and checks that every table entry builds the
// workload its name says.
func TestByName(t *testing.T) {
	const (
		paperList = "(valid: DCT, FFT, compress, dhrystone, jpeg_enc, mpeg2enc, whetstone; or a synthetic spec: "
		rv32List  = "(valid: rv32:DCT; or rv32:synth:...)"
	)
	for _, tc := range []struct {
		name, want, err string
	}{
		{name: "DCT", want: "DCT"},
		{name: "dct", want: "DCT"},
		{name: "MPEG2ENC", want: "mpeg2enc"},
		{name: "Jpeg_Enc", want: "jpeg_enc"},
		{name: "rv32:DCT", want: "rv32:DCT"},
		{name: "rv32:dct", want: "rv32:DCT"},
		{name: "RV32:DCT", err: `unknown benchmark "RV32:DCT" ` + paperList},
		{name: "nosuch", err: `unknown benchmark "nosuch" ` + paperList},
		{name: "rv32:FFT", err: `unknown RV32 benchmark "rv32:FFT" ` + rv32List},
		{name: "", err: `unknown benchmark "" ` + paperList},
	} {
		w, err := ByName(tc.name)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ByName(%q) = %q, %v; want an error containing %q", tc.name, w.Name, err, tc.err)
			}
		case err != nil || w.Name != tc.want:
			t.Errorf("ByName(%q) = %q, %v; want %q", tc.name, w.Name, err, tc.want)
		}
	}
	for _, e := range append(paperTable[:], rv32Table[:]...) {
		if w := e.get(); w.Name != e.name {
			t.Errorf("table entry %q builds workload %q", e.name, w.Name)
		}
	}
}

// TestByNameAllocs checks that a resolved benchmark name is a lookup: once
// the table is warm, ByName allocates nothing to speak of.
func TestByNameAllocs(t *testing.T) {
	for _, name := range append(tableNames(), "rv32:DCT") {
		if _, err := ByName(name); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { ByName(name) }); n > 1 {
			t.Errorf("ByName(%q) allocates %.1f times per call, want at most 1", name, n)
		}
	}
}

// tableNames lists the seven paper benchmarks' names.
func tableNames() []string {
	var names []string
	for _, e := range paperTable {
		names = append(names, e.name)
	}
	return names
}

// firstUseEnv marks the child process TestByNameConcurrentFirstUse runs
// itself in, so the table is cold when its goroutines start.
const firstUseEnv = "WORKLOADS_TEST_FIRST_USE"

// TestByNameConcurrentFirstUse resolves every table name from 8 goroutines
// at once on the table's first use and checks that all of them get the
// workload a fresh construction fingerprints to. It re-runs itself in a
// child process, where no other test has warmed the table.
func TestByNameConcurrentFirstUse(t *testing.T) {
	if os.Getenv(firstUseEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestByNameConcurrentFirstUse$", "-test.v")
		cmd.Env = append(os.Environ(), firstUseEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: TestByNameConcurrentFirstUse") {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}
	names := append(tableNames(), "rv32:DCT")
	got := make([][]uint64, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, name := range names {
				w, err := ByName(name)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], w.Fingerprint())
			}
		}()
	}
	close(start)
	wg.Wait()
	want := []uint64{DCT().Fingerprint(), FFT().Fingerprint(), Dhrystone().Fingerprint(),
		Whetstone().Fingerprint(), Compress().Fingerprint(), JPEGEnc().Fingerprint(),
		MPEG2Enc().Fingerprint(), RV32DCT().Fingerprint()}
	for g, fps := range got {
		if !slices.Equal(fps, want) {
			t.Errorf("goroutine %d resolved fingerprints %x, want %x", g, fps, want)
		}
	}
}

// TestAllReturnsFreshSlice checks that editing one All or RV32All result
// leaves the next one as it was.
func TestAllReturnsFreshSlice(t *testing.T) {
	for _, all := range []func() []Workload{All, RV32All} {
		ws := all()
		name, srcs := ws[0].Name, ws[0].Sources
		ws[0] = Workload{Name: "edited"}
		if next := all(); next[0].Name != name || !slices.Equal(next[0].Sources, srcs) {
			t.Fatalf("after an edit, the next call returns %q, want %q", next[0].Name, name)
		}
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
