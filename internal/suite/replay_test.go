package suite

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// spillPairs returns the base path of each stream's spill pair in dir,
// keyed by the stream its sidecar names, and fails t unless dir holds
// exactly one pair per stream.
func spillPairs(t *testing.T, dir string) map[string]string {
	t.Helper()
	sides, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]string{}
	for _, side := range sides {
		bases[readSidecar(t, side)["stream"].(string)] = strings.TrimSuffix(side, ".json")
	}
	if len(sides) != 2 || bases["data"] == "" || bases["fetch"] == "" {
		t.Fatalf("spill sidecars %v, want one per stream", sides)
	}
	return bases
}

// readSidecar decodes the spill sidecar at path.
func readSidecar(t *testing.T, path string) map[string]any {
	t.Helper()
	mb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// writeSidecar encodes m as the spill sidecar at path.
func writeSidecar(t *testing.T, path string, m map[string]any) {
	t.Helper()
	mb, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mb, 0o666); err != nil {
		t.Fatal(err)
	}
}

// writeFile replaces the file at path with data.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// readFile returns the contents of the file at path.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// spilledRun runs ws with a fresh trace cache over dir and returns the
// results and the cache's stats.
func spilledRun(t *testing.T, dir string, ws []workloads.Workload) (*Results, TraceCacheStats) {
	t.Helper()
	tc, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), WithWorkloads(ws...), WithTraceCache(tc))
	if err != nil {
		t.Fatal(err)
	}
	return r, tc.Stats()
}

// TestTraceCacheSpillCorrupt checks that a truncated spill file of either
// stream — the cut lands mid-record, typically inside a varint column
// payload — degrades to a re-capture (and is rewritten), never to an
// error or wrong results.
func TestTraceCacheSpillCorrupt(t *testing.T) {
	dir := t.TempDir()
	ws := raceWorkloads(t)[:1]
	first, st := spilledRun(t, dir, ws)
	if st.Captures != 1 || st.DiskLoads != 0 {
		t.Fatalf("cold dir cache stats = %+v", st)
	}
	for stream, base := range spillPairs(t, dir) {
		data := readFile(t, base+".wmtrace")
		writeFile(t, base+".wmtrace", data[:len(data)/2])

		second, st := spilledRun(t, dir, ws)
		if st.Captures != 1 || st.DiskLoads != 0 {
			t.Fatalf("%s: corrupt spill was not degraded to a capture: %+v", stream, st)
		}
		assertResultsEqual(t, first, second)

		// The re-capture rewrote the spill; a third cache loads it cleanly.
		if _, st := spilledRun(t, dir, ws); st.DiskLoads != 1 {
			t.Fatalf("%s: rewritten spill not loaded: %+v", stream, st)
		}
	}
}

// TestTraceCacheSpillBitFlips flips single bytes at offsets spread through
// each stream's WMTRACE4 spill — hitting record headers, column
// compression flags and varint payloads (the trace package's
// every-byte-flip test proves the per-offset coverage is exhaustive) — and
// checks each mutation degrades to a re-capture with bit-identical results.
func TestTraceCacheSpillBitFlips(t *testing.T) {
	dir := t.TempDir()
	ws := raceWorkloads(t)[:1]
	first, _ := spilledRun(t, dir, ws)
	for stream, base := range spillPairs(t, dir) {
		orig := readFile(t, base+".wmtrace")
		// Offset 8 is the first record's tag byte; the interior offsets land
		// in column flags/payloads; the last byte is CRC material.
		for _, off := range []int{8, len(orig) / 4, len(orig) / 2, len(orig) - 1} {
			mut := append([]byte(nil), orig...)
			mut[off] ^= 0xff
			writeFile(t, base+".wmtrace", mut)
			again, st := spilledRun(t, dir, ws)
			if st.Captures != 1 || st.DiskLoads != 0 {
				t.Fatalf("%s: flip at %d: not degraded to a capture: %+v", stream, off, st)
			}
			assertResultsEqual(t, first, again)
		}
	}
}

// TestTraceCacheStaleSidecar: a sidecar that disagrees with its trace file
// or with the other stream's sidecar (a torn, stale or mixed-up spill pair)
// must read as a miss and re-capture, not serve a capture the sidecars no
// longer describe. The cases: an event count off by one; a "data" sidecar
// over a file of fetch events, and the reverse, with counts that match the
// file; and two stream sidecars whose cycle or instruction counts differ.
// A request for one stream re-captures just as a request for both does.
func TestTraceCacheStaleSidecar(t *testing.T) {
	ws := raceWorkloads(t)[:1]
	type edit func(t *testing.T, bases map[string]string)
	count := func(stream string) edit {
		return func(t *testing.T, bases map[string]string) {
			m := readSidecar(t, bases[stream]+".json")
			m["fetches"] = m["fetches"].(float64) + 1
			writeSidecar(t, bases[stream]+".json", m)
		}
	}
	swap := func(stream, other string) edit {
		return func(t *testing.T, bases map[string]string) {
			writeFile(t, bases[stream]+".wmtrace", readFile(t, bases[other]+".wmtrace"))
			m, o := readSidecar(t, bases[stream]+".json"), readSidecar(t, bases[other]+".json")
			m["fetches"], m["datas"] = o["fetches"], o["datas"]
			writeSidecar(t, bases[stream]+".json", m)
		}
	}
	disagree := func(field string) edit {
		return func(t *testing.T, bases map[string]string) {
			m := readSidecar(t, bases["data"]+".json")
			m[field] = m[field].(float64) + 1
			writeSidecar(t, bases["data"]+".json", m)
		}
	}
	// Each case spoils the spill of the streams it names.
	cases := map[string]struct {
		edit    edit
		spoiled []Domain
	}{
		"data count":        {count("data"), []Domain{Data}},
		"fetch count":       {count("fetch"), []Domain{Fetch}},
		"data over fetches": {swap("data", "fetch"), []Domain{Data}},
		"fetch over datas":  {swap("fetch", "data"), []Domain{Fetch}},
		"cycles disagree":   {disagree("cycles"), []Domain{Data, Fetch}},
		"instrs disagree":   {disagree("instrs"), []Domain{Data, Fetch}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			first, _ := spilledRun(t, dir, ws)
			c.edit(t, spillPairs(t, dir))
			second, st := spilledRun(t, dir, ws)
			if st.Captures != 1 || st.DiskLoads != 0 {
				t.Fatalf("stale sidecar not degraded to a capture: %+v", st)
			}
			assertResultsEqual(t, first, second)

			// On a fresh spill, a request for one stream re-captures it if
			// it is spoiled and loads it otherwise.
			for _, stream := range []Domain{Data, Fetch} {
				dir := t.TempDir()
				spilledRun(t, dir, ws)
				c.edit(t, spillPairs(t, dir))
				tc, err := NewDirTraceCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				pair := trace.SinkPair{Data: trace.DataFunc(func(trace.DataEvent) {})}
				if stream == Fetch {
					pair = trace.SinkPair{Fetch: trace.FetchFunc(func(trace.FetchEvent) {})}
				}
				got, err := tc.FanOut(context.Background(), ws[0], 0, []trace.SinkPair{pair}, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := TraceCacheStats{DiskLoads: 1}
				if slices.Contains(c.spoiled, stream) {
					want = TraceCacheStats{Captures: 1}
				}
				b := first.Benchmarks[0]
				if st := tc.Stats(); st.Captures != want.Captures || st.DiskLoads != want.DiskLoads ||
					got.Cycles != b.Cycles || got.Instrs != b.Instrs {
					t.Fatalf("%s alone: %+v, %d/%d cycles/instrs, want %d captures and %d disk loads at %d/%d",
						stream, st, got.Cycles, got.Instrs, want.Captures, want.DiskLoads, b.Cycles, b.Instrs)
				}
			}
		})
	}
}

// TestTraceCacheStreamsDisagreeInMemory: a data spill whose sidecar is
// wrong about the execution counts, with no fetch spill beside it to
// contradict it, loads on a data-only request. A request for both streams
// then captures the fetch stream, finds the two disagree, drops both and
// re-captures them, so the counts it returns are the execution's.
func TestTraceCacheStreamsDisagreeInMemory(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := raceWorkloads(t)[0]
	want, err := NewTraceCache().Capture(ctx, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	dataOnly := func(tc *TraceCache) {
		t.Helper()
		pairs := []trace.SinkPair{{Data: trace.DataFunc(func(trace.DataEvent) {})}}
		if _, err := tc.FanOut(ctx, w, 0, pairs, 1); err != nil {
			t.Fatal(err)
		}
	}
	tc, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dataOnly(tc)
	sides, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(sides) != 1 {
		t.Fatalf("data-only spill sidecars: %v, %v", sides, err)
	}
	m := readSidecar(t, sides[0])
	m["cycles"] = m["cycles"].(float64) + 1
	writeSidecar(t, sides[0], m)

	// The data stream loads on its own; the fetch stream is captured when
	// both are asked for.
	tc, err = NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dataOnly(tc)
	got, err := tc.Capture(ctx, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Instrs != want.Instrs || streamDigest(got.Buf, got.Buf) != streamDigest(want.Buf, want.Buf) {
		t.Fatalf("capture at %d/%d cycles/instrs, want %d/%d", got.Cycles, got.Instrs, want.Cycles, want.Instrs)
	}
	if st := tc.Stats(); st.Captures != 2 || st.DiskLoads != 1 {
		t.Fatalf("stats %+v, want a data disk load, a fetch capture and one capture of both", st)
	}
}

// TestTraceCacheSpillLegacyRecaptures: a spill directory holding a trace
// file in the fixed-record WMTRACE1 format of earlier versions, or under
// the WMTRACE3 magic of the version before fetch runs, behind a sidecar
// that matches in every field, is a cache miss — the workload is
// re-captured exactly once, the spill is rewritten as WMTRACE4, and results
// are unchanged. So is a version 1 spill, which held both streams in one
// pair under a name without the stream, whether it sits at its own name or
// at a version 2 stream's.
func TestTraceCacheSpillLegacyRecaptures(t *testing.T) {
	ctx := context.Background()
	ws := raceWorkloads(t)[:1]
	w := ws[0]
	both, err := NewTraceCache().Capture(ctx, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if _, err := both.Buf.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	// writeV1 writes the version 1 spill pair of w at base: both streams in
	// one WMTRACE3 file and a sidecar without a stream.
	writeV1 := func(t *testing.T, base string) {
		writeFile(t, base+".wmtrace", v1.Bytes())
		writeSidecar(t, base+".json", map[string]any{
			"version": 1, "workload": w.Name, "format": trace.FileMagic, "spec": w.Spec, "isa": w.ISA,
			"fingerprint": fmt.Sprintf("%016x", w.Fingerprint()), "packet_bytes": w.DefaultPacketBytes(),
			"max_instrs": workloads.DefaultMaxInstrs, "cycles": both.Cycles, "instrs": both.Instrs,
			"fetches": both.Buf.NumFetches(), "datas": both.Buf.NumDatas(),
		})
	}
	cases := map[string]func(t *testing.T, dir string){
		// One fixed-size data record after the legacy magic, in each
		// stream's file.
		"WMTRACE1": func(t *testing.T, dir string) {
			for _, base := range spillPairs(t, dir) {
				writeFile(t, base+".wmtrace", append([]byte("WMTRACE1D"), make([]byte, 14)...))
			}
		},
		// Each stream's own spill under the magic of the format before
		// fetch runs: its data records are what that format wrote.
		"WMTRACE3": func(t *testing.T, dir string) {
			for _, base := range spillPairs(t, dir) {
				raw := readFile(t, base+".wmtrace")
				writeFile(t, base+".wmtrace", append([]byte("WMTRACE3"), raw[len(trace.FileMagic):]...))
			}
		},
		// The parent's name: the hash of the version, workload,
		// fingerprint, packet and budget.
		"v1 pair": func(t *testing.T, dir string) {
			for _, base := range spillPairs(t, dir) {
				for _, ext := range []string{".wmtrace", ".json"} {
					if err := os.Remove(base + ext); err != nil {
						t.Fatal(err)
					}
				}
			}
			h := sha256.Sum256(fmt.Appendf(nil, "wmtrace-spill-v1|%s|%016x|%d|%d",
				w.Name, w.Fingerprint(), w.DefaultPacketBytes(), workloads.DefaultMaxInstrs))
			writeV1(t, filepath.Join(dir, hex.EncodeToString(h[:8])))
		},
		"v1 pair at v2 names": func(t *testing.T, dir string) {
			for _, base := range spillPairs(t, dir) {
				writeV1(t, base)
			}
		},
	}
	for name, legacy := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			first, _ := spilledRun(t, dir, ws)
			legacy(t, dir)
			for round := 0; round < 2; round++ {
				again, st := spilledRun(t, dir, ws)
				// The first round re-captures and rewrites the spill; the
				// second loads the rewritten files.
				want := TraceCacheStats{Captures: 1}
				if round == 1 {
					want = TraceCacheStats{DiskLoads: 1}
				}
				if st.Captures != want.Captures || st.DiskLoads != want.DiskLoads {
					t.Fatalf("round %d: stats %+v, want %d captures, %d disk loads",
						round, st, want.Captures, want.DiskLoads)
				}
				assertResultsEqual(t, first, again)
			}
		})
	}
}

// TestTraceCacheConcurrentStreams races requests for the data stream, the
// fetch stream and both on one cache. Each stream is captured once: two
// executions at most, one when a request for both claims them together.
// Every request sees the same events and counts as a cache of its own.
func TestTraceCacheConcurrentStreams(t *testing.T) {
	ctx := context.Background()
	w := raceWorkloads(t)[0]
	ref, err := NewTraceCache().Capture(ctx, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := streamDigest(ref.Buf, ref.Buf)
	tc := NewTraceCache()
	data := trace.SinkPair{Data: trace.DataFunc(func(trace.DataEvent) {})}
	fetch := trace.SinkPair{Fetch: trace.FetchFunc(func(trace.FetchEvent) {})}
	const n = 9
	got := make([]Capture, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0:
				got[i], errs[i] = tc.FanOut(ctx, w, 0, []trace.SinkPair{data}, 1)
			case 1:
				got[i], errs[i] = tc.FanOut(ctx, w, 0, []trace.SinkPair{fetch}, 1)
			default:
				got[i], errs[i] = tc.Capture(ctx, w, 0)
			}
		}()
	}
	wg.Wait()
	for i, c := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if c.Cycles != ref.Cycles || c.Instrs != ref.Instrs {
			t.Fatalf("request %d: %d/%d cycles/instrs, want %d/%d", i, c.Cycles, c.Instrs, ref.Cycles, ref.Instrs)
		}
		if i%3 == 2 && streamDigest(c.Buf, c.Buf) != want {
			t.Fatalf("request %d: both streams differ from a cache of their own", i)
		}
	}
	if st := tc.Stats(); st.Captures < 1 || st.Captures > 2 {
		t.Fatalf("%d captures, want 1 or 2", st.Captures)
	}
	if c, err := tc.Capture(ctx, w, 0); err != nil || streamDigest(c.Buf, c.Buf) != want {
		t.Fatalf("capture after the race differs: %v", err)
	}
}

// TestTraceCacheAskedStreamsRideAlong: a cache asked only for data streams
// records only data streams, but once it has been asked for both, an
// execution that a data request needs records the fetch stream too, and
// spills it: a later fetch request for that workload, in this process or
// the next, neither executes nor misses. A request served from spill files
// executes nothing for the other stream.
func TestTraceCacheAskedStreamsRideAlong(t *testing.T) {
	ctx := context.Background()
	ws := raceWorkloads(t)
	data := []trace.SinkPair{{Data: trace.DataFunc(func(trace.DataEvent) {})}}
	fetch := []trace.SinkPair{{Fetch: trace.FetchFunc(func(trace.FetchEvent) {})}}
	dir := t.TempDir()
	tc, err := NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	step := func(tc *TraceCache, w workloads.Workload, pairs []trace.SinkPair, want TraceCacheStats) {
		t.Helper()
		before := tc.Stats()
		c, err := tc.FanOut(ctx, w, 0, pairs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pairs[0].Data != nil && c.Buf.NumFetches() != 0 {
			t.Fatalf("%s: a data request's buffer holds %d fetch events", w.Name, c.Buf.NumFetches())
		}
		st := tc.Stats()
		if got := (TraceCacheStats{Captures: st.Captures - before.Captures,
			DiskLoads: st.DiskLoads - before.DiskLoads}); got != want {
			t.Fatalf("%s: %d captures and %d disk loads, want %d and %d",
				w.Name, got.Captures, got.DiskLoads, want.Captures, want.DiskLoads)
		}
	}
	sidecars := func(want int) {
		t.Helper()
		if sides, err := filepath.Glob(filepath.Join(dir, "*.json")); err != nil || len(sides) != want {
			t.Fatalf("spill sidecars %v (%v), want %d", sides, err, want)
		}
	}
	captured := TraceCacheStats{Captures: 1}
	step(tc, ws[0], data, captured)
	sidecars(1)
	step(tc, ws[0], fetch, captured)
	step(tc, ws[1], data, captured)
	sidecars(4)
	step(tc, ws[1], fetch, TraceCacheStats{})

	tc, err = NewDirTraceCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded := TraceCacheStats{DiskLoads: 1}
	step(tc, ws[0], fetch, loaded)
	step(tc, ws[1], data, loaded)
	step(tc, ws[1], fetch, loaded)
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
// and power to a WMTRACE4 spill reloaded from disk and to live execution —
// the ground truth — for all eight standard techniques of both domains,
// across a geometry grid, at parallelism 1 and 4, on two synthetic
// workloads (so parallelism actually interleaves benchmarks). The fan-out
// counters count, in each pass, only the streams it has sinks for.
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
	// tcWarm captures (and spills WMTRACE4 files); tcDisk shares the
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
			// spilled, so this run decodes the WMTRACE4 files from disk.
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
		t.Fatalf("disk cache stats = %+v, want pure WMTRACE4 loads", st)
	}

	// A pass that reads one stream walks only that stream: a data-only
	// pass of two sinks counts its data events once and delivers each
	// twice, a fetch-only pass counts its fetch events, and a pass with no
	// sinks walks nothing.
	c, err := tcWarm.Capture(ctx, w1, 0)
	if err != nil {
		t.Fatal(err)
	}
	nop := trace.SinkPair{Data: trace.DataFunc(func(trace.DataEvent) {}), Fetch: trace.FetchFunc(func(trace.FetchEvent) {})}
	for _, pass := range []struct {
		pairs  []trace.SinkPair
		events int64
	}{
		{[]trace.SinkPair{{Data: nop.Data}, {Data: nop.Data}}, int64(c.Buf.NumDatas())},
		{[]trace.SinkPair{{Fetch: nop.Fetch}}, int64(c.Buf.NumFetches())},
		{nil, 0},
	} {
		before := tcWarm.Stats()
		if _, err := tcWarm.FanOut(ctx, w1, 0, pass.pairs, 1); err != nil {
			t.Fatal(err)
		}
		after := tcWarm.Stats()
		events, deliveries := after.FanOutEvents-before.FanOutEvents, after.FanOutDeliveries-before.FanOutDeliveries
		if events != pass.events || deliveries != int64(len(pass.pairs))*pass.events || after.Captures != before.Captures {
			t.Fatalf("one-stream pass of %d sinks walked %d events and delivered %d, want %d walked",
				len(pass.pairs), events, deliveries, pass.events)
		}
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
// are different programs to the cache hierarchy (4- vs 8-byte packets,
// compared packet by packet: the two programs' runs may well align).
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
			Fetch: trace.FetchFunc(func(ev trace.FetchEvent) { r.fetch = slices.AppendSeq(r.fetch, ev.Packets()) }),
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
