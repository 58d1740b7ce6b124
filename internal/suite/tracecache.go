package suite

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"waymemo/internal/fault"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// TraceCache is the execute-once / replay-many engine behind WithTraceCache:
// the fetch/data event stream of a benchmark depends only on the workload
// and the fetch-packet size — never on cache geometry or technique — so the
// cache runs each (workload, packetBytes) pair through the CPU once,
// captures the streams into a packed trace.Buffer, and replays the capture
// to every later run that asks for the same pair. A design-space sweep over
// G geometries thus costs W executions plus G×W cheap replays instead of
// G×W executions.
//
// With a spill directory (NewDirTraceCache), captures are also written as
// WMTRACE3 files (compressed column chunks) with a JSON sidecar, and a later
// process loads them back instead of executing at all. Spill files are
// keyed by the workload's content fingerprint, so stale files for a renamed
// or edited workload — like a truncated, bit-flipped or otherwise corrupt
// trace file, or one in a format this version no longer reads — degrade to
// a re-capture, never to wrong results.
//
// A TraceCache is safe for concurrent use and is meant to be shared across
// many suite.Run calls; concurrent requests for the same pair block on a
// single capture.
type TraceCache struct {
	dir string
	fs  fault.FS

	mu      sync.Mutex
	entries map[traceKey]*traceEntry

	captures  atomic.Int64
	diskLoads atomic.Int64
	replays   atomic.Int64

	fanPasses     atomic.Int64
	fanSinks      atomic.Int64
	fanEvents     atomic.Int64
	fanDeliveries atomic.Int64
}

// traceKey identifies one captured execution. maxInstrs (defaulted) is part
// of the identity even though a successful capture always runs to halt: a
// budget that would fail a live run must miss the cache and fail here too,
// not silently succeed off a longer run's capture.
type traceKey struct {
	name        string
	fingerprint uint64
	packet      uint32
	maxInstrs   uint64
}

// traceEntry is one capture, possibly still in flight: done closes when buf
// (or err) is final.
type traceEntry struct {
	done   chan struct{}
	buf    *trace.Buffer
	cycles uint64
	instrs uint64
	err    error
}

// TraceCacheStats reports how a TraceCache served its requests.
type TraceCacheStats struct {
	// Captures is the number of full simulator executions performed.
	Captures int
	// DiskLoads is the number of captures reloaded from spill files.
	DiskLoads int
	// Replays is the number of benchmark runs served by replaying a
	// capture instead of executing. One batched fan-out pass can serve many
	// runs (every grid point of a sharded sweep task counts).
	Replays int

	// FanOutPasses counts batched fan-out passes over a capture, and
	// FanOutSinks the technique sinks those passes fed, so
	// FanOutSinks/FanOutPasses is the average fan-out width — how many
	// techniques each streaming of a trace paid for.
	FanOutPasses int
	FanOutSinks  int
	// FanOutEvents is the number of events the passes walked (counted once
	// per pass); FanOutDeliveries the per-sink deliveries those walks
	// produced (each pass delivers its fetch stream to every fetch sink and
	// its data stream to every data sink).
	FanOutEvents     int64
	FanOutDeliveries int64
}

// SinksPerPass returns the average batched fan-out width, 0 before any pass.
func (s TraceCacheStats) SinksPerPass() float64 {
	if s.FanOutPasses == 0 {
		return 0
	}
	return float64(s.FanOutSinks) / float64(s.FanOutPasses)
}

// NewTraceCache returns an in-memory trace cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: map[traceKey]*traceEntry{}}
}

// NewDirTraceCache returns a trace cache that spills captures to dir as
// WMTRACE3 files (plus JSON sidecars) and reloads them in later processes.
// The directory is created if needed.
func NewDirTraceCache(dir string) (*TraceCache, error) {
	return NewDirTraceCacheFS(dir, fault.FS{})
}

// NewDirTraceCacheFS is NewDirTraceCache with the spill I/O routed through
// a fault-injection shim (sites io.trace.*); the zero FS is a passthrough.
// Injected spill faults can only cost re-captures or spill errors, never
// wrong replays — the same contract corrupt files already get.
func NewDirTraceCacheFS(dir string, fs fault.FS) (*TraceCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("suite: empty trace directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("suite: creating trace directory: %w", err)
	}
	tc := NewTraceCache()
	tc.dir = dir
	tc.fs = fs
	return tc, nil
}

// Flush drops every completed in-memory capture, returning how many were
// dropped. Spilled captures reload from disk on next use; memory-only ones
// re-execute — results are unaffected either way. Long-running daemons call
// it after evicting spill files so resident memory tracks the store's byte
// budget instead of growing with every workload ever swept. Captures still
// in flight are left alone.
func (tc *TraceCache) Flush() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := 0
	for k, e := range tc.entries {
		select {
		case <-e.done:
			// A failed filler already removed its entry, so anything still
			// mapped and done is a completed capture.
			delete(tc.entries, k)
			n++
		default:
		}
	}
	return n
}

// Stats returns the cache's request counters so far.
func (tc *TraceCache) Stats() TraceCacheStats {
	return TraceCacheStats{
		Captures:         int(tc.captures.Load()),
		DiskLoads:        int(tc.diskLoads.Load()),
		Replays:          int(tc.replays.Load()),
		FanOutPasses:     int(tc.fanPasses.Load()),
		FanOutSinks:      int(tc.fanSinks.Load()),
		FanOutEvents:     tc.fanEvents.Load(),
		FanOutDeliveries: tc.fanDeliveries.Load(),
	}
}

// Capture is one captured execution, ready for fan-out replay: the packed
// event streams plus the execution counts a BenchResult carries.
type Capture struct {
	Buf    *trace.Buffer
	Cycles uint64
	Instrs uint64
}

// Capture returns the capture for (w, packet), executing or disk-loading it
// at most once; concurrent requests for the same pair block on one filler.
// Callers that replay the returned buffer themselves should prefer FanOut,
// which also keeps the cache's replay statistics honest.
func (tc *TraceCache) Capture(ctx context.Context, w workloads.Workload, packet uint32) (Capture, error) {
	e, err := tc.get(ctx, w, packet)
	if err != nil {
		return Capture{}, err
	}
	return Capture{Buf: e.buf, Cycles: e.cycles, Instrs: e.instrs}, nil
}

// FanOut replays the capture for (w, packet) to every registered pair in a
// single batched pass over the trace (trace.Buffer.ReplayAll), capturing or
// disk-loading it first if needed. runs is the number of logical benchmark
// runs the pass serves — suite.Run passes 1 per workload, a sharded explore
// task passes its grid-point count — and is what Stats().Replays advances
// by, so the counter keeps meaning "benchmark runs served by replay"
// however wide the fan-out is.
func (tc *TraceCache) FanOut(ctx context.Context, w workloads.Workload, packet uint32, pairs []trace.SinkPair, runs int) (Capture, error) {
	c, err := tc.Capture(ctx, w, packet)
	if err != nil {
		return Capture{}, err
	}
	if err := c.Buf.ReplayAll(ctx, pairs); err != nil {
		return Capture{}, err
	}
	var deliveries int64
	for _, p := range pairs {
		if p.Fetch != nil {
			deliveries += int64(c.Buf.NumFetches())
		}
		if p.Data != nil {
			deliveries += int64(c.Buf.NumDatas())
		}
	}
	tc.replays.Add(int64(runs))
	tc.fanPasses.Add(1)
	tc.fanSinks.Add(int64(len(pairs)))
	tc.fanEvents.Add(int64(c.Buf.Len()))
	tc.fanDeliveries.Add(deliveries)
	return c, nil
}

// get returns the capture for (w, packet), executing it at most once per
// attempt. A failed capture is not memoized, so a cancelled sweep does not
// poison the cache for the next one, and a waiter whose filler failed
// retries under its own ctx instead of inheriting the filler's error.
// Packet 0 (the default) and the workload's own default packet — 8 bytes
// for FRVL, 4 for rv32 — produce the same stream and share one capture.
func (tc *TraceCache) get(ctx context.Context, w workloads.Workload, packet uint32) (*traceEntry, error) {
	keyPacket := packet
	if keyPacket == 0 {
		keyPacket = w.DefaultPacketBytes()
	}
	maxInstrs := w.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = workloads.DefaultMaxInstrs
	}
	k := traceKey{w.Name, w.Fingerprint(), keyPacket, maxInstrs}
	for {
		tc.mu.Lock()
		e := tc.entries[k]
		if e == nil {
			e = &traceEntry{done: make(chan struct{})}
			tc.entries[k] = e
			tc.mu.Unlock()
			e.err = tc.fill(ctx, e, w, packet, k)
			if e.err != nil {
				tc.mu.Lock()
				delete(tc.entries, k)
				tc.mu.Unlock()
			}
			close(e.done)
			return e, e.err
		}
		tc.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				return e, nil
			}
			// The filler failed and removed the entry; try again unless
			// our own ctx is the one that ended.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fill populates e from the spill directory if possible, else by executing
// the workload into a buffer through a capture stager.
func (tc *TraceCache) fill(ctx context.Context, e *traceEntry, w workloads.Workload, packet uint32, k traceKey) error {
	if tc.dir != "" && tc.load(e, k, w) {
		tc.diskLoads.Add(1)
		return nil
	}
	buf := new(trace.Buffer)
	c, err := workloads.RunPacketContext(ctx, w, trace.NewCapture(buf), packet)
	if err != nil {
		return err
	}
	tc.captures.Add(1)
	e.buf, e.cycles, e.instrs = buf, c.Cycles, c.Instrs
	if tc.dir != "" {
		if err := tc.store(e, k, w); err != nil {
			return err
		}
	}
	return nil
}

// traceMetaVersion versions the sidecar schema; bump it to invalidate old
// spill directories wholesale.
const traceMetaVersion = 1

// traceMeta is the JSON sidecar of one spill file: what the trace file
// itself cannot carry — the execution counts BenchResult needs, and the
// identity fields that double-check the trace file answers for the right
// capture. Format is informational: the reader checks the file's own
// magic.
type traceMeta struct {
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	// Format names the trace file format the spill was written in.
	Format string `json:"format,omitempty"`
	// Spec is the canonical synthetic spec the workload was generated from
	// (empty for the paper benchmarks), making spill directories
	// self-describing: the sidecar alone says how to regenerate the
	// program that produced the trace. Identity-wise it is redundant with
	// Workload (a synthetic workload's name is its spec), but a mismatch
	// still reads as a miss.
	Spec string `json:"spec,omitempty"`
	// ISA names the frontend the trace was captured under (empty for
	// FRVL). A mismatch reads as a miss, so an rv32 spill can never be
	// replayed as an FRVL capture of the same kernel or vice versa.
	ISA         string `json:"isa,omitempty"`
	Fingerprint string `json:"fingerprint"`
	PacketBytes uint32 `json:"packet_bytes"`
	MaxInstrs   uint64 `json:"max_instrs"`
	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
	Fetches     int    `json:"fetches"`
	Datas       int    `json:"datas"`
}

// spillBase names the spill file pair for a key: a hash, so arbitrary
// workload names cannot escape the directory or collide after sanitizing.
func (tc *TraceCache) spillBase(k traceKey) string {
	h := sha256.Sum256(fmt.Appendf(nil, "wmtrace-spill-v%d|%s|%016x|%d|%d",
		traceMetaVersion, k.name, k.fingerprint, k.packet, k.maxInstrs))
	return filepath.Join(tc.dir, hex.EncodeToString(h[:8]))
}

// load restores a capture from its spill pair. Any mismatch, truncation or
// decode error degrades to a miss (returns false) and the capture is
// re-executed and re-stored — a corrupt file must never poison results.
func (tc *TraceCache) load(e *traceEntry, k traceKey, w workloads.Workload) bool {
	base := tc.spillBase(k)
	mb, err := tc.fs.ReadFile(fault.SiteTraceRead, base+".json")
	if err != nil {
		return false
	}
	var m traceMeta
	if json.Unmarshal(mb, &m) != nil ||
		m.Version != traceMetaVersion ||
		m.Workload != k.name ||
		m.Spec != w.Spec ||
		m.ISA != w.ISA ||
		m.Fingerprint != fmt.Sprintf("%016x", k.fingerprint) ||
		m.PacketBytes != k.packet ||
		m.MaxInstrs != k.maxInstrs {
		return false
	}
	f, err := tc.fs.Open(fault.SiteTraceRead, base+".wmtrace")
	if err != nil {
		return false
	}
	defer f.Close()
	buf, err := trace.ReadBuffer(f)
	if err != nil || buf.NumFetches() != m.Fetches || buf.NumDatas() != m.Datas {
		return false
	}
	e.buf, e.cycles, e.instrs = buf, m.Cycles, m.Instrs
	return true
}

// store writes the capture as a WMTRACE3 file plus sidecar, each through a
// temp file, fsync and rename so readers never observe a torn spill.
func (tc *TraceCache) store(e *traceEntry, k traceKey, w workloads.Workload) error {
	base := tc.spillBase(k)
	if err := tc.fs.WriteFileAtomic(fault.SiteTraceWrite, base+".wmtrace", func(f io.Writer) error {
		_, err := e.buf.WriteTo(f)
		return err
	}); err != nil {
		return fmt.Errorf("suite: spilling trace: %w", err)
	}
	m := traceMeta{
		Version:     traceMetaVersion,
		Workload:    k.name,
		Format:      trace.FileMagic,
		Spec:        w.Spec,
		ISA:         w.ISA,
		Fingerprint: fmt.Sprintf("%016x", k.fingerprint),
		PacketBytes: k.packet,
		MaxInstrs:   k.maxInstrs,
		Cycles:      e.cycles,
		Instrs:      e.instrs,
		Fetches:     e.buf.NumFetches(),
		Datas:       e.buf.NumDatas(),
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := tc.fs.WriteFileAtomic(fault.SiteTraceWrite, base+".json", func(f io.Writer) error {
		_, err := f.Write(mb)
		return err
	}); err != nil {
		return fmt.Errorf("suite: spilling trace sidecar: %w", err)
	}
	return nil
}
