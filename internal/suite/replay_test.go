package suite

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// assertResultsEqual demands bit-identical counters, cycle counts and power
// breakdowns between a live run and a replayed run, for every benchmark and
// every technique in both domains.
func assertResultsEqual(t *testing.T, live, replayed *Results) {
	t.Helper()
	if len(live.Benchmarks) != len(replayed.Benchmarks) {
		t.Fatalf("benchmark counts differ: %d vs %d", len(live.Benchmarks), len(replayed.Benchmarks))
	}
	for i, lb := range live.Benchmarks {
		rb := replayed.Benchmarks[i]
		if lb.Name != rb.Name || lb.Cycles != rb.Cycles || lb.Instrs != rb.Instrs {
			t.Fatalf("%s: cycles/instrs %d/%d vs %d/%d",
				lb.Name, lb.Cycles, lb.Instrs, rb.Cycles, rb.Instrs)
		}
		if len(lb.D) != len(rb.D) || len(lb.I) != len(rb.I) {
			t.Fatalf("%s: technique sets differ", lb.Name)
		}
		for id, ltr := range lb.D {
			rtr, ok := rb.D[id]
			if !ok {
				t.Fatalf("%s: D technique %q missing from replay", lb.Name, id)
			}
			if *ltr.Stats != *rtr.Stats {
				t.Errorf("%s/D/%s counters diverge:\nlive:   %+v\nreplay: %+v",
					lb.Name, id, *ltr.Stats, *rtr.Stats)
			}
			if lb.DPower(id) != rb.DPower(id) {
				t.Errorf("%s/D/%s power diverges: %+v vs %+v",
					lb.Name, id, lb.DPower(id), rb.DPower(id))
			}
		}
		for id, ltr := range lb.I {
			rtr, ok := rb.I[id]
			if !ok {
				t.Fatalf("%s: I technique %q missing from replay", lb.Name, id)
			}
			if *ltr.Stats != *rtr.Stats {
				t.Errorf("%s/I/%s counters diverge:\nlive:   %+v\nreplay: %+v",
					lb.Name, id, *ltr.Stats, *rtr.Stats)
			}
			if lb.IPower(id) != rb.IPower(id) {
				t.Errorf("%s/I/%s power diverges: %+v vs %+v",
					lb.Name, id, lb.IPower(id), rb.IPower(id))
			}
		}
	}
}

// TestReplayEquivalenceGolden is the correctness contract of the
// execute-once / replay-many engine: record+replay must produce bit-identical
// stats.Counters and power.Breakdown to live execution for all eight standard
// techniques of the paper's evaluation, in both cache domains.
func TestReplayEquivalenceGolden(t *testing.T) {
	ctx := context.Background()
	ws := raceWorkloads(t)
	live, err := Run(ctx, WithWorkloads(ws...))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(live.Benchmarks[0].D) + len(live.Benchmarks[0].I); n != 8 {
		t.Fatalf("standard registry has %d techniques, want 8", n)
	}
	tc := NewTraceCache()
	replayed, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, live, replayed)
	st := tc.Stats()
	if st.Captures != len(ws) || st.Replays != len(ws) {
		t.Fatalf("trace cache stats = %+v, want %d captures/%d replays", st, len(ws), len(ws))
	}

	// A second Run on the same cache replays without executing again.
	again, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, live, again)
	if st := tc.Stats(); st.Captures != len(ws) {
		t.Fatalf("warm rerun re-executed: %+v", st)
	}
}

// TestReplayEquivalencePacketBytes checks the engine keys captures on the
// fetch-packet size: the 16-byte ablation replays identically too, from its
// own capture.
func TestReplayEquivalencePacketBytes(t *testing.T) {
	ctx := context.Background()
	ws := raceWorkloads(t)[:1]
	live, err := Run(ctx, WithWorkloads(ws...), WithPacketBytes(16))
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTraceCache()
	for _, pb := range []uint32{16, 0} {
		if _, err := Run(ctx, WithWorkloads(ws...), WithPacketBytes(pb), WithTraceCache(tc)); err != nil {
			t.Fatal(err)
		}
	}
	if st := tc.Stats(); st.Captures != 2 {
		t.Fatalf("packet sizes were not captured separately: %+v", st)
	}
	// Packet 0 means the 8-byte VLIW default: an explicit 8 shares its
	// capture rather than executing a third time.
	if _, err := Run(ctx, WithWorkloads(ws...), WithPacketBytes(8), WithTraceCache(tc)); err != nil {
		t.Fatal(err)
	}
	if st := tc.Stats(); st.Captures != 2 {
		t.Fatalf("packet 8 did not share the default capture: %+v", st)
	}
	replayed, err := Run(ctx, WithWorkloads(ws...), WithPacketBytes(16), WithTraceCache(tc))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, live, replayed)
}

// TestTraceCacheSpill checks the WMTRACE1 spill/reload path: a fresh cache
// over the same directory serves the capture from disk without executing,
// with bit-identical results.
func TestTraceCacheSpill(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ws := raceWorkloads(t)[:1]

	tc1, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc1))
	if err != nil {
		t.Fatal(err)
	}
	if st := tc1.Stats(); st.Captures != 1 || st.DiskLoads != 0 {
		t.Fatalf("cold dir cache stats = %+v", st)
	}

	tc2, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc2))
	if err != nil {
		t.Fatal(err)
	}
	if st := tc2.Stats(); st.Captures != 0 || st.DiskLoads != 1 {
		t.Fatalf("warm dir cache stats = %+v (want pure disk load)", st)
	}
	assertResultsEqual(t, first, second)
}

// TestTraceCacheSpillCorrupt checks that a truncated spill file — the cut
// lands mid-record, typically inside a varint column payload — degrades to
// a re-capture (and is rewritten), never to an error or wrong results.
func TestTraceCacheSpillCorrupt(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ws := raceWorkloads(t)[:1]

	tc1, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc1))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := filepath.Glob(filepath.Join(dir, "*.wmtrace"))
	if err != nil || len(traces) != 1 {
		t.Fatalf("spill files: %v, %v", traces, err)
	}
	data, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(traces[0], data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	tc2, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc2))
	if err != nil {
		t.Fatal(err)
	}
	if st := tc2.Stats(); st.Captures != 1 || st.DiskLoads != 0 {
		t.Fatalf("corrupt spill was not degraded to a capture: %+v", st)
	}
	assertResultsEqual(t, first, second)

	// The re-capture rewrote the spill; a third cache loads it cleanly.
	tc3, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc3)); err != nil {
		t.Fatal(err)
	}
	if st := tc3.Stats(); st.DiskLoads != 1 {
		t.Fatalf("rewritten spill not loaded: %+v", st)
	}
}

// TestTraceCacheSpillBitFlips flips single bytes at offsets spread through
// a WMTRACE2 spill — hitting record headers, column compression flags and
// varint payloads (the trace package's every-byte-flip test proves the
// per-offset coverage is exhaustive) — and checks each mutation degrades to
// a re-capture with bit-identical results.
func TestTraceCacheSpillBitFlips(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ws := raceWorkloads(t)[:1]

	tc1, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc1))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := filepath.Glob(filepath.Join(dir, "*.wmtrace"))
	if err != nil || len(traces) != 1 {
		t.Fatalf("spill files: %v, %v", traces, err)
	}
	orig, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	// Offset 8 is the first record's tag byte; the interior offsets land in
	// column flags/payloads; the last byte is CRC material.
	for _, off := range []int{8, len(orig) / 4, len(orig) / 2, len(orig) - 1} {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xff
		if err := os.WriteFile(traces[0], mut, 0o666); err != nil {
			t.Fatal(err)
		}
		tc, err := NewDirTraceCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc))
		if err != nil {
			t.Fatal(err)
		}
		if st := tc.Stats(); st.Captures != 1 || st.DiskLoads != 0 {
			t.Fatalf("flip at %d: not degraded to a capture: %+v", off, st)
		}
		assertResultsEqual(t, first, again)
	}
}

// TestTraceCacheStaleSidecar: a sidecar whose event counts disagree with
// the trace file (a torn or stale spill pair) must read as a miss and
// re-capture, not serve a capture the sidecar no longer describes.
func TestTraceCacheStaleSidecar(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ws := raceWorkloads(t)[:1]

	tc1, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc1))
	if err != nil {
		t.Fatal(err)
	}
	sides, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(sides) != 1 {
		t.Fatalf("sidecar files: %v, %v", sides, err)
	}
	mb, err := os.ReadFile(sides[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	m["fetches"] = m["fetches"].(float64) + 1
	mb, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sides[0], mb, 0o666); err != nil {
		t.Fatal(err)
	}

	tc2, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc2))
	if err != nil {
		t.Fatal(err)
	}
	if st := tc2.Stats(); st.Captures != 1 || st.DiskLoads != 0 {
		t.Fatalf("stale sidecar not degraded to a capture: %+v", st)
	}
	assertResultsEqual(t, first, second)
}

// TestTraceCacheSpillLegacyRecaptures: a spill directory holding a trace
// file in the fixed-record WMTRACE1 format of earlier versions, behind a
// sidecar that matches in every field, is a cache miss — the workload is
// re-captured exactly once, the spill is rewritten as WMTRACE2, and results
// are unchanged.
func TestTraceCacheSpillLegacyRecaptures(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ws := raceWorkloads(t)[:1]

	tc1, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc1))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := filepath.Glob(filepath.Join(dir, "*.wmtrace"))
	if err != nil || len(traces) != 1 {
		t.Fatalf("spill files: %v, %v", traces, err)
	}
	// One fixed-size data record after the legacy magic.
	legacy := append([]byte("WMTRACE1D"), make([]byte, 14)...)
	if err := os.WriteFile(traces[0], legacy, 0o666); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		tc, err := NewDirTraceCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc))
		if err != nil {
			t.Fatal(err)
		}
		// The first round re-captures and rewrites the spill; the second
		// loads the rewritten file.
		want := TraceCacheStats{Captures: 1}
		if round == 1 {
			want = TraceCacheStats{DiskLoads: 1}
		}
		if st := tc.Stats(); st.Captures != want.Captures || st.DiskLoads != want.DiskLoads {
			t.Fatalf("round %d: stats %+v, want %d captures, %d disk loads",
				round, st, want.Captures, want.DiskLoads)
		}
		assertResultsEqual(t, first, again)
	}
}

// TestTraceCacheMaxInstrsKeyed: an instruction budget that would fail a
// live run must fail through the cache too, not silently reuse a capture
// recorded under a longer budget.
func TestTraceCacheMaxInstrsKeyed(t *testing.T) {
	ctx := context.Background()
	tc := NewTraceCache()
	if _, err := Run(ctx, WithWorkloads(workloads.DCT()), WithTraceCache(tc)); err != nil {
		t.Fatal(err)
	}
	small := workloads.DCT()
	small.MaxInstrs = 1000
	if _, err := Run(ctx, WithWorkloads(small), WithTraceCache(tc)); err == nil {
		t.Fatal("budget-limited workload replayed a full-length capture")
	}
}

// TestFanOutReplayEquivalence is the batched fan-out contract, widened to
// the compressed × parallelism grid: one ReplayAll pass feeding every
// technique (suite.Run's replay path) must produce byte-identical counters
// and power to a WMTRACE2 spill reloaded from disk and to live execution —
// the ground truth — for all eight standard techniques of both domains,
// across a geometry grid, at parallelism 1 and 4, on two synthetic
// workloads (so parallelism actually interleaves benchmarks).
func TestFanOutReplayEquivalence(t *testing.T) {
	ctx := context.Background()
	w1, err := workloads.ByName("synth:pchase,fp=8KiB,stride=64,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workloads.ByName("synth:hotloop,fp=1KiB,n=2048")
	if err != nil {
		t.Fatal(err)
	}
	// The RV32 rendering of w1's spec widens the wall across the ISA axis:
	// its 4-byte-packet capture must satisfy the same live ≡ batched ≡
	// spilled equivalence as the FRVL streams.
	w3, err := workloads.ByName("rv32:synth:pchase,fp=8KiB,stride=64,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	ws := []workloads.Workload{w1, w2, w3}
	geos := []cache.Config{
		{Sets: 128, Ways: 1, LineBytes: 16},
		{Sets: 256, Ways: 2, LineBytes: 32},
		{Sets: 512, Ways: 4, LineBytes: 32},
	}
	dir := t.TempDir()
	// tcWarm captures (and spills WMTRACE2 files); tcDisk shares the
	// directory but is a distinct cache, so everything it serves comes from
	// the compressed spill files, never from an in-memory capture.
	tcWarm, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	tcDisk, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pars := []int{1, 4}
	for _, geo := range geos {
		live, err := Run(ctx, WithWorkloads(ws...), WithGeometry(geo))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(live.Benchmarks[0].D) + len(live.Benchmarks[0].I); n != 8 {
			t.Fatalf("standard registry has %d techniques, want 8", n)
		}
		for _, par := range pars {
			batched, err := Run(ctx, WithWorkloads(ws...), WithGeometry(geo),
				WithTraceCache(tcWarm), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			// By the time tcDisk first runs, tcWarm's capture has already
			// spilled, so this run decodes the WMTRACE2 files from disk.
			spilled, err := Run(ctx, WithWorkloads(ws...), WithGeometry(geo),
				WithTraceCache(tcDisk), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, live, batched)
			assertResultsEqual(t, live, spilled)
		}
	}
	st := tcWarm.Stats()
	if st.Captures != len(ws) || st.DiskLoads != 0 {
		t.Fatalf("geometry sweep re-executed a workload: %+v", st)
	}
	// Every batched pass fed all eight techniques from one stream walk,
	// through two sinks: the D and I lane controllers, each serving its
	// domain's original, MAB techniques and observer (the set buffer,
	// approach [4]).
	wantPasses := len(geos) * len(pars) * len(ws)
	if st.FanOutPasses != wantPasses || st.SinksPerPass() != 2 {
		t.Fatalf("fan-out stats = %+v, want %d passes of 2 sinks", st, wantPasses)
	}
	// With one sink per domain, every event reaches exactly one sink.
	if st.FanOutEvents <= 0 || st.FanOutDeliveries != st.FanOutEvents {
		t.Fatalf("fan-out accounting: %+v, want one delivery per event", st)
	}
	if st := tcDisk.Stats(); st.Captures != 0 || st.DiskLoads != len(ws) {
		t.Fatalf("disk cache stats = %+v, want pure WMTRACE2 loads", st)
	}
}

// TestFanOutReplaySharedBufferRace hammers one shared capture from
// contending sink groups: several goroutines each instantiate the full
// eight-technique set and run their own batched fan-out pass over the same
// compressed buffer concurrently. Block decode uses per-pass cursors and
// scratch, so every group must observe the identical stream — counters must
// match a single-threaded reference exactly. Run under -race in CI.
func TestFanOutReplaySharedBufferRace(t *testing.T) {
	ctx := context.Background()
	w, err := workloads.ByName("synth:hotloop,fp=1KiB,n=2048")
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTraceCache()
	c, err := tc.Capture(ctx, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	techs := defaultRegistry.Techniques()
	build := func() ([]trace.SinkPair, map[string]*stats.Counters) {
		var pairs []trace.SinkPair
		counters := map[string]*stats.Counters{}
		for _, tech := range techs {
			inst := tech.New(cache.FRV32K)
			switch tech.Domain {
			case Data:
				pairs = append(pairs, trace.SinkPair{Data: inst.Data})
			case Fetch:
				pairs = append(pairs, trace.SinkPair{Fetch: inst.Fetch})
			}
			counters[tech.Domain.String()+"/"+string(tech.ID)] = inst.Stats
		}
		return pairs, counters
	}
	refPairs, refCounters := build()
	if err := c.Buf.ReplayAll(ctx, refPairs); err != nil {
		t.Fatal(err)
	}

	const groups = 8
	errs := make([]error, groups)
	got := make([]map[string]*stats.Counters, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pairs, counters := build()
			errs[g] = c.Buf.ReplayAll(ctx, pairs)
			got[g] = counters
		}(g)
	}
	wg.Wait()
	for g := 0; g < groups; g++ {
		if errs[g] != nil {
			t.Fatalf("group %d: %v", g, errs[g])
		}
		for id, want := range refCounters {
			if *got[g][id] != *want {
				t.Errorf("group %d/%s counters diverge:\nref: %+v\ngot: %+v",
					g, id, *want, *got[g][id])
			}
		}
	}
}

// TestFanOutCancellationMidReplay: a context cancelled while a fan-out pass
// is streaming surfaces as an error from Run, not as silently truncated
// counters.
func TestFanOutCancellationMidReplay(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ws := raceWorkloads(t)[:1]
	tc := NewTraceCache()
	if _, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc)); err != nil {
		t.Fatal(err)
	}
	// An ad hoc technique whose sink cancels the sweep partway through the
	// replayed stream.
	seen := 0
	canceller := Technique{ID: "canceller", Domain: Data, Desc: "cancels mid-replay",
		New: func(geo cache.Config) Instance {
			return Instance{
				Data: trace.DataFunc(func(trace.DataEvent) {
					seen++
					if seen == 64 {
						cancel()
					}
				}),
				Stats: &stats.Counters{},
			}
		}}
	orig, _ := Lookup(Data, DOrig)
	_, err := Run(ctx, WithWorkloads(ws...), WithTraceCache(tc),
		WithTechniques(canceller, orig))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fan-out run: err = %v", err)
	}
}

// TestCrossISADifferentialCapture runs the same kernel under both frontends
// through the trace cache — each execution validates against the identical
// Go reference, so both streams describe a provably-correct run of the same
// algorithm — then demands that each ISA's capture replays bit-identically
// through repeated ReplayAll passes, and that the two ISAs' streams really
// are different programs to the cache hierarchy (4- vs 8-byte packets).
func TestCrossISADifferentialCapture(t *testing.T) {
	ctx := context.Background()
	tc := NewTraceCache()
	type recording struct {
		fetch []trace.FetchEvent
		data  []trace.DataEvent
	}
	record := func(buf *trace.Buffer) recording {
		var r recording
		pairs := []trace.SinkPair{{
			Fetch: trace.FetchFunc(func(ev trace.FetchEvent) { r.fetch = append(r.fetch, ev) }),
			Data:  trace.DataFunc(func(ev trace.DataEvent) { r.data = append(r.data, ev) }),
		}}
		if err := buf.ReplayAll(ctx, pairs); err != nil {
			t.Fatal(err)
		}
		return r
	}
	spec := "synth:pchase,fp=4KiB,seed=7"
	recs := map[string]recording{}
	for _, name := range []string{spec, "rv32:" + spec} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := tc.Capture(ctx, w, 0) // 0 = the frontend's native packet
		if err != nil {
			t.Fatal(err)
		}
		first := record(c.Buf)
		again := record(c.Buf)
		if len(first.fetch) != len(again.fetch) || len(first.data) != len(again.data) {
			t.Fatalf("%s: replay lengths diverge: %d/%d fetches, %d/%d datas",
				name, len(first.fetch), len(again.fetch), len(first.data), len(again.data))
		}
		for i := range first.fetch {
			if first.fetch[i] != again.fetch[i] {
				t.Fatalf("%s: fetch %d differs between replays: %+v vs %+v",
					name, i, first.fetch[i], again.fetch[i])
			}
		}
		for i := range first.data {
			if first.data[i] != again.data[i] {
				t.Fatalf("%s: data %d differs between replays: %+v vs %+v",
					name, i, first.data[i], again.data[i])
			}
		}
		recs[name] = first
	}
	frvl, rv := recs[spec], recs["rv32:"+spec]
	// Same algorithm, same data accesses in spirit — but genuinely
	// different fetch streams: RV32's 4-byte packets and denser RISC
	// encoding must not produce the FRVL packet sequence.
	if len(frvl.fetch) == len(rv.fetch) {
		t.Fatalf("FRVL and RV32 captures have identical fetch counts (%d) — suspicious cross-ISA aliasing", len(frvl.fetch))
	}
	for _, r := range recs {
		if len(r.fetch) == 0 || len(r.data) == 0 {
			t.Fatal("empty capture")
		}
		if !r.fetch[0].First {
			t.Fatal("capture does not start with the reset fetch")
		}
	}
	// Both executed once; nothing replayed from the wrong ISA's entry.
	if st := tc.Stats(); st.Captures != 2 {
		t.Fatalf("trace cache stats = %+v, want 2 distinct captures", st)
	}
}
