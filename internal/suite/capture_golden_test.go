package suite

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"waymemo/internal/synth"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

var updateCaptures = flag.Bool("update-captures", false, "rewrite testdata/capture_digests.json from the current simulator")

// captureDigest pins one capture: the SHA-256 of its two event streams,
// each event as fixed-width fields (streamDigest), the length of each
// stream, and the execution's cycle and instruction counts. It pins the
// events, not a file format, so a change to the spill encoding leaves it
// unchanged; and it pins the fetch stream packet by packet, so does a
// change to how packets are grouped into runs. Fetches counts packets.
type captureDigest struct {
	Workload    string `json:"workload"`
	PacketBytes uint32 `json:"packet_bytes"`
	SHA256      string `json:"sha256"`
	Fetches     int    `json:"fetches"`
	Datas       int    `json:"datas"`
	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
}

// streamDigest hashes fetch's fetch stream and then data's data stream,
// each event as little-endian fixed-width fields: a fetch packet, each run
// expanded into its packets, as addr, prev, base, disp (4 bytes each),
// kind and first (1 byte each); a data access as addr, base, disp, size
// and store. A capture of both streams passes the same buffer twice.
func streamDigest(fetch, data *trace.Buffer) string {
	h := sha256.New()
	le := binary.LittleEndian
	var rec []byte
	for _, run := range fetch.Fetches() {
		for ev := range run.Packets() {
			rec = le.AppendUint32(rec[:0], ev.Addr)
			rec = le.AppendUint32(rec, ev.Prev)
			rec = le.AppendUint32(rec, ev.Base)
			rec = le.AppendUint32(rec, uint32(ev.Disp))
			rec = append(rec, byte(ev.Kind), boolByte(ev.First))
			h.Write(rec)
		}
	}
	for _, ev := range data.Datas() {
		rec = le.AppendUint32(rec[:0], ev.Addr)
		rec = le.AppendUint32(rec, ev.Base)
		rec = le.AppendUint32(rec, uint32(ev.Disp))
		rec = append(rec, ev.Size, boolByte(ev.Store))
		h.Write(rec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// captureOne records only the fetch stream of one run of w (fetch true) or
// only its data stream, the way a trace cache captures the one stream a
// fan-out pass reads.
func captureOne(t *testing.T, w workloads.Workload, packet uint32, fetch bool) (buf *trace.Buffer, cycles, instrs uint64) {
	t.Helper()
	c, _, err := NewTraceCache().capture(context.Background(), w, packet, [2]bool{Data: !fetch, Fetch: fetch}, nil)
	if err != nil {
		t.Fatalf("%s@%d: %v", w.Name, packet, err)
	}
	return c.Buf, c.Cycles, c.Instrs
}

// packets counts the packets of buf's fetch runs.
func packets(buf *trace.Buffer) int {
	n := 0
	for _, ev := range buf.Fetches() {
		n += ev.NumPackets()
	}
	return n
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// captureGoldenCases is every workload and fetch-packet size the digests
// pin: the paper's seven benchmarks at the default, 16-byte and 4-byte
// packets; the RV32 kernel ports and one small synthetic spec per pattern
// on each ISA at the default and 16-byte packets.
func captureGoldenCases(t *testing.T) []struct {
	w      workloads.Workload
	packet uint32
} {
	t.Helper()
	var cases []struct {
		w      workloads.Workload
		packet uint32
	}
	add := func(ws []workloads.Workload, packets ...uint32) {
		for _, w := range ws {
			for _, pb := range packets {
				cases = append(cases, struct {
					w      workloads.Workload
					packet uint32
				}{w, pb})
			}
		}
	}
	add(workloads.All(), 0, 16, 4)
	add(workloads.RV32All(), 0, 16)
	for _, p := range synth.Patterns() {
		for _, prefix := range []string{"", workloads.RV32Prefix} {
			ws, err := workloads.ExpandByName(fmt.Sprintf("%ssynth:%s,fp=8KiB,n=4096,seed=11", prefix, p))
			if err != nil {
				t.Fatal(err)
			}
			add(ws, 0, 16)
		}
	}
	return cases
}

// TestCaptureDigests pins every capture in captureGoldenCases bit for bit:
// a change to either simulator, to the fetch-packet protocol or to the
// capture path that moves a single event or its order within its stream
// changes a digest. Every capture's fetch packets number its cycles, and
// the paper's seven benchmarks at the default packet hold at most 1.6M
// fetch runs in all. -short keeps only the default packet size.
func TestCaptureDigests(t *testing.T) {
	path := filepath.Join("testdata", "capture_digests.json")
	want := map[string]captureDigest{}
	if !*updateCaptures {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []captureDigest
		if err := json.Unmarshal(raw, &recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			want[fmt.Sprintf("%s@%d", r.Workload, r.PacketBytes)] = r
		}
	}
	var got []captureDigest
	paperRuns := 0
	for _, c := range captureGoldenCases(t) {
		if testing.Short() && c.packet != 0 {
			continue
		}
		tc := NewTraceCache()
		cp, err := tc.Capture(context.Background(), c.w, c.packet)
		if err != nil {
			t.Fatalf("%s@%d: %v", c.w.Name, c.packet, err)
		}
		d := captureDigest{Workload: c.w.Name, PacketBytes: c.packet, SHA256: streamDigest(cp.Buf, cp.Buf),
			Fetches: packets(cp.Buf), Datas: cp.Buf.NumDatas(), Cycles: cp.Cycles, Instrs: cp.Instrs}
		got = append(got, d)
		if uint64(d.Fetches) != d.Cycles {
			t.Errorf("%s@%d: %d fetch packets in %d runs for %d cycles", c.w.Name, c.packet, d.Fetches, cp.Buf.NumFetches(), d.Cycles)
		}
		if c.packet == 0 && c.w.Spec == "" && c.w.ISA == "" {
			paperRuns += cp.Buf.NumFetches()
		}
		if *updateCaptures {
			continue
		}
		key := fmt.Sprintf("%s@%d", d.Workload, d.PacketBytes)
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no recorded digest", key)
			continue
		}
		if d != w {
			t.Errorf("%s: capture moved:\n got %+v\nwant %+v", key, d, w)
		}
		// Each stream recorded alone: the simulator builds no event of the
		// other, and the two halves hash to the pinned digest.
		fb, fCycles, fInstrs := captureOne(t, c.w, c.packet, true)
		db, dCycles, dInstrs := captureOne(t, c.w, c.packet, false)
		alone := captureDigest{Workload: c.w.Name, PacketBytes: c.packet, SHA256: streamDigest(fb, db),
			Fetches: packets(fb), Datas: db.NumDatas(), Cycles: fCycles, Instrs: fInstrs}
		if alone != w || dCycles != fCycles || dInstrs != fInstrs || fb.NumDatas() != 0 || db.NumFetches() != 0 {
			t.Errorf("%s: one-stream captures moved: fetch-only %d/%d events, data-only %d/%d "+
				"(fetches/datas) at %d/%d cycles/instrs; together\n got %+v\nwant %+v",
				key, fb.NumFetches(), fb.NumDatas(), db.NumFetches(), db.NumDatas(), dCycles, dInstrs, alone, w)
		}
	}
	t.Logf("the paper's benchmarks hold %d fetch runs at the default packet", paperRuns)
	if paperRuns > 1_600_000 {
		t.Errorf("the paper's benchmarks hold %d fetch runs at the default packet, over 1.6M", paperRuns)
	}
	if *updateCaptures {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
