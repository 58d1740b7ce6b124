package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"waymemo/internal/cache"
	"waymemo/internal/explore"
	"waymemo/internal/suite"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// fakeResult builds a distinguishable PointResult for store bookkeeping
// tests (no simulation involved).
func fakeResult(i int) *explore.PointResult {
	return &explore.PointResult{
		Geometry: cache.Config{Sets: 64, Ways: 2, LineBytes: 16},
		Workload: fmt.Sprintf("w%d", i),
		Cycles:   uint64(1000 + i),
		Instrs:   uint64(500 + i),
		Techs:    []explore.TechOutcome{{ID: "original"}},
	}
}

func TestStoreGetPutStats(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("k0"); ok {
		t.Fatal("Get on empty store hit")
	}
	if err := st.Put("k0", fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	pr, ok := st.Get("k0")
	if !ok || pr.Workload != "w0" {
		t.Fatalf("Get after Put: ok=%v pr=%+v", ok, pr)
	}
	s := st.Stats()
	if s.ResultEntries != 1 || s.ResultBytes <= 0 {
		t.Errorf("stats entries=%d bytes=%d, want 1 entry with bytes > 0", s.ResultEntries, s.ResultBytes)
	}
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Errorf("stats hits=%d misses=%d puts=%d, want 1/1/1", s.Hits, s.Misses, s.Puts)
	}
}

// TestStoreAdoptsExisting: a reopened store adopts on-disk entries, so a
// restarted daemon resumes warm.
func TestStoreAdoptsExisting(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Put(fmt.Sprintf("k%d", i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := re.Stats(); s.ResultEntries != 3 || s.ResultBytes <= 0 {
		t.Fatalf("reopened stats = %+v, want 3 adopted entries", s)
	}
	if pr, ok := re.Get("k1"); !ok || pr.Workload != "w1" {
		t.Fatalf("reopened Get(k1): ok=%v pr=%+v", ok, pr)
	}
}

// TestStoreLRUEviction: under a budget that holds two of four results, the
// two most recently used survive Enforce.
func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	seed, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := seed.Put(fmt.Sprintf("k%d", i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Size the budget to exactly the two entries we intend to keep.
	dc, err := explore.NewDirCache(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	var keep int64
	for _, k := range []string{"k2", "k3"} {
		e, ok := dc.Entry(k)
		if !ok {
			t.Fatalf("missing entry %s", k)
		}
		keep += e.Bytes
	}

	st, err := OpenStore(dir, keep+1)
	if err != nil {
		t.Fatal(err)
	}
	// Bump the keepers so k0/k1 are the LRU victims.
	for _, k := range []string{"k2", "k3"} {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("Get(%s) missed before eviction", k)
		}
	}
	evRes, evTr := st.Enforce()
	if evRes != 2 || evTr != 0 {
		t.Fatalf("Enforce evicted %d results, %d traces; want 2, 0", evRes, evTr)
	}
	for _, k := range []string{"k2", "k3"} {
		if _, ok := st.Get(k); !ok {
			t.Errorf("recently used %s evicted", k)
		}
	}
	for _, k := range []string{"k0", "k1"} {
		if _, ok := st.Get(k); ok {
			t.Errorf("LRU victim %s survived", k)
		}
	}
	if s := st.Stats(); s.ResultBytes > s.BudgetBytes {
		t.Errorf("after Enforce: %d result bytes over budget %d", s.ResultBytes, s.BudgetBytes)
	}
}

// TestStoreTraceEviction: stale trace spill pairs are evicted before fresher
// results, and both files of a pair go together.
func TestStoreTraceEviction(t *testing.T) {
	// First pass just measures one result's on-disk size.
	probe, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put("k0", fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	resBytes := probe.Stats().ResultBytes

	// Budget fits the result plus half the trace pair, so Enforce must shed
	// the (older) trace pair and keep the result.
	st, err := OpenStore(t.TempDir(), resBytes+1000)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	for _, name := range []string{"cap.wmtrace", "cap.json"} {
		p := filepath.Join(st.TraceDir(), name)
		if err := os.WriteFile(p, make([]byte, 1000), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put("k0", fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	evRes, evTr := st.Enforce()
	if evRes != 0 || evTr != 1 {
		t.Fatalf("Enforce evicted %d results, %d trace pairs; want 0, 1", evRes, evTr)
	}
	for _, name := range []string{"cap.wmtrace", "cap.json"} {
		if _, err := os.Stat(filepath.Join(st.TraceDir(), name)); !os.IsNotExist(err) {
			t.Errorf("%s survived trace eviction (err=%v)", name, err)
		}
	}
	if _, ok := st.Get("k0"); !ok {
		t.Error("fresh result evicted instead of stale trace pair")
	}
	if s := st.Stats(); s.TraceEvictions != 1 || s.TraceFiles != 0 {
		t.Errorf("stats after trace eviction = %+v", s)
	}
}

// TestStoreMixedFormatTraceEviction: the store's byte budget counts real
// spill pairs — an hour-old WMTRACE3 fetch-stream pair next to a fresh
// one, both with full sidecars, evicts by age, and the surviving pair
// still decodes.
func TestStoreMixedFormatTraceEviction(t *testing.T) {
	var buf trace.Buffer
	addr := uint32(0x1000)
	for i := 0; i < 5000; i++ {
		buf.OnFetch(trace.FetchEvent{
			Addr: addr + 8, Prev: addr, Base: addr, Disp: 8,
			Kind: trace.KindSeq, First: i == 0,
		})
		addr += 8
	}
	dir := t.TempDir()
	seed, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, emit func(*os.File) error, age time.Duration) int64 {
		t.Helper()
		p := filepath.Join(seed.TraceDir(), name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := emit(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		when := time.Now().Add(-age)
		if err := os.Chtimes(p, when, when); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	sidecar := func(f *os.File) error {
		_, err := fmt.Fprintf(f, `{"version":2,"stream":"fetch","fetches":%d,"datas":0}`, buf.NumFetches())
		return err
	}
	spill := func(f *os.File) error { _, err := buf.WriteTo(f); return err }
	write("stale.wmtrace", spill, time.Hour)
	write("stale.json", sidecar, time.Hour)
	freshBytes := write("current.wmtrace", spill, 0)
	freshBytes += write("current.json", sidecar, 0)

	st, err := OpenStore(dir, freshBytes+1)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.RecoveredTraces != 0 || s.TraceFiles != 2 {
		t.Fatalf("boot adopted %d pairs, quarantined %d; want 2, 0", s.TraceFiles, s.RecoveredTraces)
	}
	evRes, evTr := st.Enforce()
	if evRes != 0 || evTr != 1 {
		t.Fatalf("Enforce evicted %d results, %d trace pairs; want 0, 1", evRes, evTr)
	}
	for _, name := range []string{"stale.wmtrace", "stale.json"} {
		if _, err := os.Stat(filepath.Join(st.TraceDir(), name)); !os.IsNotExist(err) {
			t.Errorf("%s survived eviction (err=%v)", name, err)
		}
	}
	f, err := os.Open(filepath.Join(st.TraceDir(), "current.wmtrace"))
	if err != nil {
		t.Fatalf("surviving WMTRACE3 pair gone: %v", err)
	}
	defer f.Close()
	loaded, err := trace.ReadBuffer(f)
	if err != nil {
		t.Fatalf("surviving WMTRACE3 spill no longer decodes: %v", err)
	}
	if loaded.NumFetches() != buf.NumFetches() || loaded.NumDatas() != buf.NumDatas() {
		t.Errorf("survivor decodes to %d/%d events, want %d/%d",
			loaded.NumFetches(), loaded.NumDatas(), buf.NumFetches(), buf.NumDatas())
	}
}

// wmtrace1 encodes b's streams in the fixed-record WMTRACE1 layout of
// earlier versions — the magic, then 'F' addr prev kind base disp flags and
// 'D' addr base disp flags size records, little-endian — exactly what an
// older daemon left in its spill directory.
func wmtrace1(b *trace.Buffer) []byte {
	out := []byte("WMTRACE1")
	le := binary.LittleEndian
	for _, ev := range b.Fetches() {
		out = append(out, 'F')
		out = le.AppendUint32(out, ev.Addr)
		out = le.AppendUint32(out, ev.Prev)
		out = append(out, byte(ev.Kind))
		out = le.AppendUint32(out, ev.Base)
		out = le.AppendUint32(out, uint32(ev.Disp))
		var flags byte
		if ev.First {
			flags = 1
		}
		out = append(out, flags)
	}
	for _, ev := range b.Datas() {
		out = append(out, 'D')
		out = le.AppendUint32(out, ev.Addr)
		out = le.AppendUint32(out, ev.Base)
		out = le.AppendUint32(out, uint32(ev.Disp))
		var flags byte
		if ev.Store {
			flags = 1
		}
		out = append(out, flags, ev.Size)
	}
	return out
}

// wmtrace2 encodes b's streams in the WMTRACE2 column format of the
// version before this one, every column raw, as that version spilled a run
// whose fetches all came before its first data access: the full fetch
// chunks, the full data chunks, each stream's short tail chunk, then the
// trailer with its program-order bitmap of one bit per event.
func wmtrace2(b *trace.Buffer) []byte {
	const chunkLen = 1 << 15
	le := binary.LittleEndian
	out := []byte("WMTRACE2")
	record := func(tag byte, body []byte) {
		out = append(out, tag)
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
		out = le.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	var fcols [4][]uint32 // addr, prev, base, disp
	var kind []byte
	for _, ev := range b.Fetches() {
		fcols[0], fcols[1] = append(fcols[0], ev.Addr), append(fcols[1], ev.Prev)
		fcols[2], fcols[3] = append(fcols[2], ev.Base), append(fcols[3], uint32(ev.Disp))
		kind = append(kind, byte(ev.Kind)|boolBit(ev.First))
	}
	var dcols [3][]uint32 // addr, base, disp
	var meta []byte
	for _, ev := range b.Datas() {
		dcols[0], dcols[1], dcols[2] = append(dcols[0], ev.Addr), append(dcols[1], ev.Base), append(dcols[2], uint32(ev.Disp))
		meta = append(meta, ev.Size|boolBit(ev.Store))
	}
	// emit frames the stream's full chunks, or its short tail chunk.
	emit := func(tag byte, cols [][]uint32, flags []byte, full bool) {
		for lo := 0; lo < len(flags); lo += chunkLen {
			hi := min(lo+chunkLen, len(flags))
			if (hi-lo == chunkLen) != full {
				continue
			}
			body := binary.AppendUvarint(nil, uint64(hi-lo))
			for _, c := range cols {
				body = append(body, 0) // raw
				body = binary.AppendUvarint(body, uint64(4*(hi-lo)))
				for _, v := range c[lo:hi] {
					body = le.AppendUint32(body, v)
				}
			}
			record(tag, append(body, flags[lo:hi]...))
		}
	}
	for _, full := range []bool{true, false} {
		emit('F', fcols[:], kind, full)
		emit('D', dcols[:], meta, full)
	}
	nf, nd := len(kind), len(meta)
	trailer := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(nf)), uint64(nd))
	bitmap := make([]byte, (nf+nd+7)/8)
	for i := nf; i < nf+nd; i++ {
		bitmap[i/8] |= 1 << (i % 8)
	}
	record('E', append(trailer, bitmap...))
	return out
}

// wmtrace3 encodes b's streams in the WMTRACE3 column format of the
// version before fetch runs, every column raw, as that version spilled
// them: one fetch event per packet, its prev stored where it is not the
// chunk's previous packet (0 at the chunk's start) and its base and disp
// where it is not a KindSeq fall-through from prev; a data access's addr
// where it is not base + disp. It returns the file and its fetch count.
func wmtrace3(b *trace.Buffer) ([]byte, int) {
	const chunkLen = 1 << 15
	le := binary.LittleEndian
	out := []byte("WMTRACE3")
	record := func(tag byte, n int, flags []byte, cols [][]uint32) {
		body := append(binary.AppendUvarint(nil, uint64(n)), flags...)
		for _, c := range cols {
			body = append(body, 0) // raw
			body = binary.AppendUvarint(body, uint64(4*len(c)))
			for _, v := range c {
				body = le.AppendUint32(body, v)
			}
		}
		out = append(out, tag)
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
		out = le.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	var packets []trace.FetchEvent
	for _, ev := range b.Fetches() {
		packets = slices.AppendSeq(packets, ev.Packets())
	}
	for lo := 0; lo < len(packets); lo += chunkLen {
		chunk := packets[lo:min(lo+chunkLen, len(packets))]
		var kind []byte
		cols := make([][]uint32, 4) // addr, prev, base, disp
		last := uint32(0)
		for _, ev := range chunk {
			k := byte(ev.Kind) | boolBit(ev.First)
			if ev.Prev != last {
				k |= 0x40
				cols[1] = append(cols[1], ev.Prev)
			}
			if ev.Kind != trace.KindSeq || ev.Base != ev.Prev || uint32(ev.Disp) != ev.Addr-ev.Prev {
				k |= 0x20
				cols[2], cols[3] = append(cols[2], ev.Base), append(cols[3], uint32(ev.Disp))
			}
			cols[0], kind, last = append(cols[0], ev.Addr), append(kind, k), ev.Addr
		}
		record('F', len(chunk), kind, cols)
	}
	datas := b.Datas()
	for lo := 0; lo < len(datas); lo += chunkLen {
		chunk := datas[lo:min(lo+chunkLen, len(datas))]
		var meta []byte
		cols := make([][]uint32, 3) // base, disp, addr
		for _, ev := range chunk {
			mt := ev.Size | boolBit(ev.Store)
			if ev.Addr != ev.Base+uint32(ev.Disp) {
				mt |= 0x40
				cols[2] = append(cols[2], ev.Addr)
			}
			cols[0], cols[1], meta = append(cols[0], ev.Base), append(cols[1], uint32(ev.Disp)), append(meta, mt)
		}
		record('D', len(chunk), meta, cols)
	}
	trailer := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(len(packets))), uint64(len(datas)))
	out = append(out, 'E')
	out = binary.AppendUvarint(out, uint64(len(trailer)))
	out = append(out, trailer...)
	return le.AppendUint32(out, crc32.ChecksumIEEE(trailer)), len(packets)
}

func boolBit(v bool) byte {
	if v {
		return 0x80
	}
	return 0
}

// TestServerRecapturesOldSpillDir boots the daemon on a spill directory
// older versions or damage left behind. For four workloads both stream
// pairs are bad on their face: one workload's trace files are WMTRACE1,
// one's are WMTRACE2 and one's WMTRACE3, one fetch event per packet, each
// behind a sidecar that matches it in every field, and one's sidecars are
// minimal, without event counts. Two more pairs decode but answer for no
// capture a trace cache loads: a "data" sidecar over a file of fetch
// events, and a version 1 pair that held both streams under a name
// without the stream. Boot quarantines those ten pairs, and a second boot
// finds nothing left to recover. One more
// workload's pairs are each whole but disagree: its data sidecar's cycle
// count is not its fetch sidecar's. The next data sweep re-captures each
// workload exactly once instead of loading any pair.
func TestServerRecapturesOldSpillDir(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	seed, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{tinySpec, "synth:stream,fp=1KiB,n=1024", "synth:branchy,fp=1KiB,n=1024",
		"synth:blocked,fp=1KiB,n=1024", "synth:pchase,fp=1KiB,n=1024", "synth:phase,fp=1KiB,n=1024",
		"synth:hotloop,fp=1KiB,n=1024"}
	var ws []workloads.Workload
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	tc, err := suite.NewDirTraceCache(seed.TraceDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := suite.Run(ctx, suite.WithWorkloads(ws...), suite.WithTraceCache(tc)); err != nil {
		t.Fatal(err)
	}
	// streamBuf returns the capture of one stream of w alone.
	streamBuf := func(w workloads.Workload, stream string) *trace.Buffer {
		pair := trace.SinkPair{Data: trace.DataFunc(func(trace.DataEvent) {})}
		if stream == "fetch" {
			pair = trace.SinkPair{Fetch: trace.FetchFunc(func(trace.FetchEvent) {})}
		}
		c, err := tc.FanOut(ctx, w, 0, []trace.SinkPair{pair}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return c.Buf
	}
	sidecars, err := filepath.Glob(filepath.Join(seed.TraceDir(), "*.json"))
	if err != nil || len(sidecars) != 2*len(names) {
		t.Fatalf("spilled sidecars: %v, %v", sidecars, err)
	}
	metas := map[string]map[string]any{} // by base
	bases := map[[2]string]string{}      // by workload and stream
	for _, side := range sidecars {
		blob, err := os.ReadFile(side)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		base := strings.TrimSuffix(side, ".json")
		metas[base], bases[[2]string{m["workload"].(string), m["stream"].(string)}] = m, base
	}
	write := func(path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The sidecars name each workload canonically, as ws does.
	index := map[string]int{}
	for i, w := range ws {
		index[w.Name] = i
	}
	for base, m := range metas {
		w, stream := ws[index[m["workload"].(string)]], m["stream"].(string)
		switch index[w.Name] {
		case 0:
			write(base+".wmtrace", wmtrace1(streamBuf(w, stream)))
			m["format"] = "WMTRACE1"
		case 1:
			delete(m, "fetches")
			delete(m, "datas")
		case 2:
			write(base+".wmtrace", wmtrace2(streamBuf(w, stream)))
			m["format"] = "WMTRACE2"
		case 3:
			if stream != "data" {
				continue
			}
			fetch := bases[[2]string{w.Name, "fetch"}]
			blob, err := os.ReadFile(fetch + ".wmtrace")
			if err != nil {
				t.Fatal(err)
			}
			write(base+".wmtrace", blob)
			m["fetches"], m["datas"] = metas[fetch]["fetches"], 0
		case 4:
			if stream != "data" {
				continue
			}
			m["cycles"] = m["cycles"].(float64) + 1
		case 5:
			for _, ext := range []string{".wmtrace", ".json"} {
				if err := os.Remove(base + ext); err != nil {
					t.Fatal(err)
				}
			}
			if stream != "data" {
				continue
			}
			c, err := tc.Capture(ctx, w, 0)
			if err != nil {
				t.Fatal(err)
			}
			var v1 strings.Builder
			if _, err := c.Buf.WriteTo(&v1); err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(fmt.Appendf(nil, "wmtrace-spill-v1|%s|%016x|%d|%d",
				w.Name, w.Fingerprint(), w.DefaultPacketBytes(), workloads.DefaultMaxInstrs))
			base = filepath.Join(seed.TraceDir(), hex.EncodeToString(h[:8]))
			write(base+".wmtrace", []byte(v1.String()))
			delete(m, "stream")
			m["version"], m["fetches"], m["datas"] = 1, c.Buf.NumFetches(), c.Buf.NumDatas()
		case 6:
			raw, n := wmtrace3(streamBuf(w, stream))
			write(base+".wmtrace", raw)
			m["format"] = "WMTRACE3"
			if stream == "fetch" {
				m["fetches"] = n
			}
		}
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		write(base+".json", blob)
	}

	boot := func() *Server {
		t.Helper()
		s, err := New(Config{StoreDir: dir, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := boot()
	if got := s.Stats().Store.RecoveredTraces; got != 10 {
		t.Fatalf("first boot quarantined %d trace pairs, want 10", got)
	}
	s.Close()
	s = boot()
	t.Cleanup(s.Close)
	if got := s.Stats().Store.RecoveredTraces; got != 0 {
		t.Fatalf("second boot quarantined %d trace pairs, want 0", got)
	}
	job, err := s.Submit(SweepRequest{Sets: []int{64}, TagEntries: []int{1}, SetEntries: []int{4}, Workloads: names})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, job); st.State != "done" {
		t.Fatalf("sweep over the recovered directory finished %s", st.State)
	}
	if tr := s.Stats().Traces; tr.Captures != len(names) || tr.DiskLoads != 0 {
		t.Fatalf("trace stats %+v, want %d captures and 0 disk loads", tr, len(names))
	}
}
