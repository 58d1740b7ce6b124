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
// captures the streams into packed trace.Buffers, and replays the capture
// to every later run that asks for the same pair. A design-space sweep over
// G geometries thus costs W executions plus G×W cheap replays instead of
// G×W executions. The request whose execution fills a capture decodes
// nothing: the execution hands each block to that request's sinks as it
// records it (FanOut).
//
// The cache keeps one entry per (workload, packet, stream). A request names
// the streams it reads — FanOut those its sinks consume, Capture both — and
// the streams it misses are captured together in one execution that records
// only them: the simulator builds no event of a stream nothing reads, so a
// data-domain sweep never simulates, encodes or spills a fetch event. A
// stream already held or in flight is never captured again. An execution
// also records any other stream this cache has been asked for before, so a
// cache serving both domains executes a workload once unless it swept one
// domain of that workload before the other domain was first asked for.
//
// With a spill directory (NewDirTraceCache), each captured stream is also
// written as its own WMTRACE4 file (compressed column chunks) with a JSON
// sidecar, and a later process loads it back instead of executing at all.
// Spill files are keyed by the workload's content fingerprint and the
// stream, so stale files for a renamed or edited workload — like a
// truncated, bit-flipped or otherwise corrupt trace file, one in a format
// this version no longer reads, or a stream's pair that disagrees with the
// other stream's — degrade to a re-capture, never to wrong results.
//
// A TraceCache is safe for concurrent use and is meant to be shared across
// many suite.Run calls; concurrent requests for the same stream block on a
// single capture.
type TraceCache struct {
	dir string
	fs  fault.FS

	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	// asked records, per Domain, whether any request has wanted that
	// stream: once both have been, every execution records both.
	asked [2]bool

	captures   atomic.Int64
	diskLoads  atomic.Int64
	replays    atomic.Int64
	livePasses atomic.Int64

	fanPasses     atomic.Int64
	fanSinks      atomic.Int64
	fanEvents     atomic.Int64
	fanDeliveries atomic.Int64
}

// traceKey identifies one captured stream of one execution. maxInstrs
// (defaulted) is part of the identity even though a successful capture
// always runs to halt: a budget that would fail a live run must miss the
// cache and fail here too, not silently succeed off a longer run's capture.
type traceKey struct {
	name        string
	fingerprint uint64
	packet      uint32
	maxInstrs   uint64
	stream      Domain
}

// traceEntry is one captured stream, possibly still in flight: done closes
// when buf (or err) is final. buf holds only the entry's stream.
type traceEntry struct {
	done   chan struct{}
	buf    *trace.Buffer
	cycles uint64
	instrs uint64
	err    error
}

// streams lists the two streams in Domain order, the index of every
// per-stream array below.
var streams = [2]Domain{Data, Fetch}

// TraceCacheStats reports how a TraceCache served its requests.
type TraceCacheStats struct {
	// Captures is the number of simulator executions performed; one
	// execution captures every stream its request missed.
	Captures int
	// DiskLoads is the number of requests whose missed streams were all
	// reloaded from spill files instead of executing.
	DiskLoads int
	// Replays is the number of benchmark runs served by a fan-out pass,
	// live or decoded. One batched fan-out pass can serve many runs (every
	// grid point of a sharded sweep task counts).
	Replays int
	// LivePasses counts the fan-out passes that rode along the execution
	// filling their capture and decoded nothing; the other
	// FanOutPasses−LivePasses passes each decoded the streams they read.
	LivePasses int

	// FanOutPasses counts batched fan-out passes over a capture, and
	// FanOutSinks the technique sinks those passes fed, so
	// FanOutSinks/FanOutPasses is the average fan-out width — how many
	// techniques each streaming of a trace paid for.
	FanOutPasses int
	FanOutSinks  int
	// FanOutEvents is the number of events the passes walked (counted once
	// per pass, and only in the streams that pass has sinks for);
	// FanOutDeliveries the per-sink deliveries those walks produced (each
	// pass delivers its fetch stream to every fetch sink and its data
	// stream to every data sink).
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
// WMTRACE4 files (plus JSON sidecars) and reloads them in later processes.
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

// Flush drops every completed in-memory stream capture, returning how many
// were dropped. Spilled captures reload from disk on next use; memory-only
// ones re-execute — results are unaffected either way. Long-running
// daemons call it after evicting spill files so resident memory tracks the
// store's byte budget instead of growing with every workload ever swept.
// Captures still in flight are left alone.
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
		LivePasses:       int(tc.livePasses.Load()),
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

// Capture returns the capture for (w, packet) with both streams, executing
// or disk-loading each stream at most once; concurrent requests for the
// same stream block on one filler. Two streams captured apart are joined
// without copying. Callers that replay the returned buffer themselves
// should prefer FanOut, which also keeps the cache's replay statistics
// honest.
func (tc *TraceCache) Capture(ctx context.Context, w workloads.Workload, packet uint32) (Capture, error) {
	c, _, err := tc.capture(ctx, w, packet, [2]bool{true, true}, nil)
	return c, err
}

// FanOut replays the capture for (w, packet) to every registered pair in a
// single batched pass over the trace (trace.Buffer.ReplayAll), capturing or
// disk-loading first the streams its pairs read, and only those, if needed.
// When this request's own execution fills every stream its pairs read, the
// execution feeds the pairs block by block as it records them, and the
// pass decodes nothing (a live pass); a request that waits on another's
// fill, loads a spill, or finds any of its streams held decodes as above.
// The returned Capture's buffer holds those streams. runs is the number of
// logical benchmark runs the pass serves — suite.Run passes 1 per
// workload, a sharded explore task passes its grid-point count — and is
// what Stats().Replays advances by, so the counter keeps meaning
// "benchmark runs served by a fan-out pass" however wide the fan-out is.
func (tc *TraceCache) FanOut(ctx context.Context, w workloads.Workload, packet uint32, pairs []trace.SinkPair, runs int) (Capture, error) {
	var sinks [2]int64
	for _, p := range pairs {
		if p.Data != nil {
			sinks[Data]++
		}
		if p.Fetch != nil {
			sinks[Fetch]++
		}
	}
	// Pairs that read no stream still need the execution's counts, which
	// every stream's entry carries; the data stream is the smaller.
	want := [2]bool{sinks[Data] > 0 || sinks[Fetch] == 0, sinks[Fetch] > 0}
	c, live, err := tc.capture(ctx, w, packet, want, pairs)
	if err != nil {
		return Capture{}, err
	}
	if live {
		// A replay of this buffer would refuse it with the same error.
		err = c.Buf.Err()
	} else {
		err = c.Buf.ReplayAll(ctx, pairs)
	}
	if err != nil {
		return Capture{}, err
	}
	n := [2]int64{Data: int64(c.Buf.NumDatas()), Fetch: int64(c.Buf.NumFetches())}
	var events, deliveries int64
	for _, s := range streams {
		if sinks[s] > 0 {
			events += n[s]
		}
		deliveries += sinks[s] * n[s]
	}
	tc.replays.Add(int64(runs))
	if live {
		tc.livePasses.Add(1)
	}
	tc.fanPasses.Add(1)
	tc.fanSinks.Add(int64(len(pairs)))
	tc.fanEvents.Add(events)
	tc.fanDeliveries.Add(deliveries)
	return c, nil
}

// capture returns the capture for (w, packet) holding the wanted streams,
// and whether the execution that filled them fed pairs (see get). A stream
// read from a spill file carries its sidecar's counts; should two streams
// disagree on them, both entries are dropped and fetched once more, which
// re-captures whatever spill is wrong, since each stream's load also
// checks the other stream's sidecar.
func (tc *TraceCache) capture(ctx context.Context, w workloads.Workload, packet uint32, want [2]bool,
	pairs []trace.SinkPair) (Capture, bool, error) {
	for attempt := 0; ; attempt++ {
		es, live, err := tc.get(ctx, w, packet, want, pairs)
		if err != nil {
			return Capture{}, false, err
		}
		d, f := es[Data], es[Fetch]
		switch {
		case d == nil:
			return Capture{Buf: f.buf, Cycles: f.cycles, Instrs: f.instrs}, live, nil
		case f == nil:
			return Capture{Buf: d.buf, Cycles: d.cycles, Instrs: d.instrs}, live, nil
		case d.cycles == f.cycles && d.instrs == f.instrs:
			return Capture{Buf: trace.Join(f.buf, d.buf), Cycles: d.cycles, Instrs: d.instrs}, live, nil
		case attempt > 0:
			return Capture{}, false, fmt.Errorf("suite: %s: data and fetch captures disagree on cycles/instrs", w.Name)
		}
		k := tc.key(w, packet)
		tc.mu.Lock()
		for _, s := range streams {
			if k.stream = s; tc.entries[k] == es[s] {
				delete(tc.entries, k)
			}
		}
		tc.mu.Unlock()
	}
}

// key returns the data stream's key for (w, packet). Packet 0 (the
// default) and the workload's own default packet — 8 bytes for FRVL, 4 for
// rv32 — produce the same streams and share one key.
func (tc *TraceCache) key(w workloads.Workload, packet uint32) traceKey {
	if packet == 0 {
		packet = w.DefaultPacketBytes()
	}
	maxInstrs := w.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = workloads.DefaultMaxInstrs
	}
	return traceKey{w.Name, w.Fingerprint(), packet, maxInstrs, Data}
}

// get returns the entries of the wanted streams of (w, packet), indexed
// by Domain. It first fills, in one execution, every wanted stream that
// has no entry (fill may add streams asked for before), and then waits for
// the streams other requests are filling. When this request is the one
// filling every wanted stream and fill executes, the execution feeds
// pairs as it records, and live reports that pairs have seen the streams.
// A failed capture is not memoized, so a cancelled sweep does not poison
// the cache for the next one, and a waiter whose filler failed retries
// under its own ctx instead of inheriting the filler's error.
func (tc *TraceCache) get(ctx context.Context, w workloads.Workload, packet uint32, want [2]bool,
	pairs []trace.SinkPair) ([2]*traceEntry, bool, error) {
	k := tc.key(w, packet)
	for {
		var es, fill [2]*traceEntry
		filling := false
		tc.mu.Lock()
		for _, s := range streams {
			if !want[s] {
				continue
			}
			k.stream = s
			tc.asked[s] = true
			if es[s] = tc.entries[k]; es[s] == nil {
				es[s] = &traceEntry{done: make(chan struct{})}
				fill[s], filling = es[s], true
				tc.entries[k] = es[s]
			}
		}
		tc.mu.Unlock()
		if filling {
			// Every wanted stream is this request's to fill exactly when
			// fill holds the same entries as es.
			var feed []trace.SinkPair
			own := fill == es
			if own {
				feed = pairs
			}
			executed, err := tc.fill(ctx, &fill, w, packet, k, feed)
			tc.mu.Lock()
			for _, s := range streams {
				if e := fill[s]; e != nil {
					if e.err = err; err != nil {
						k.stream = s
						delete(tc.entries, k)
					}
					close(e.done)
				}
			}
			tc.mu.Unlock()
			if err != nil {
				return es, false, err
			}
			if own {
				return es, executed, nil
			}
		}
		retry := false
		for _, e := range es {
			if e == nil {
				continue
			}
			select {
			case <-e.done:
				// The filler failed and removed the entry; try again
				// unless our own ctx is the one that ended.
				if e.err != nil {
					if err := ctx.Err(); err != nil {
						return es, false, err
					}
					retry = true
				}
			case <-ctx.Done():
				return es, false, ctx.Err()
			}
		}
		if !retry {
			return es, false, nil
		}
	}
}

// fill populates the entries of fill, indexed by Domain, from the spill
// directory if every one of them loads, else by executing the workload once
// through a capture stager that records exactly their streams and hands
// each block to feed's sinks too; executed reports the execution. An
// execution also claims, as one more entry of fill, any other stream this
// cache has been asked for and holds no entry of: the events cost one
// encode, where asking for them later would cost a second execution.
func (tc *TraceCache) fill(ctx context.Context, fill *[2]*traceEntry, w workloads.Workload, packet uint32, k traceKey,
	feed []trace.SinkPair) (executed bool, err error) {
	if tc.dir != "" && tc.loadAll(*fill, k, w) {
		tc.diskLoads.Add(1)
		return false, nil
	}
	tc.mu.Lock()
	for _, s := range streams {
		if k.stream = s; fill[s] == nil && tc.asked[s] && tc.entries[k] == nil {
			fill[s] = &traceEntry{done: make(chan struct{})}
			tc.entries[k] = fill[s]
		}
	}
	tc.mu.Unlock()
	var bufs [2]*trace.Buffer
	for _, s := range streams {
		if fill[s] != nil {
			bufs[s] = new(trace.Buffer)
		}
	}
	c, err := workloads.RunPacketContext(ctx, w, trace.NewCaptureStreams(bufs[Fetch], bufs[Data], feed), packet)
	if err != nil {
		return true, err
	}
	tc.captures.Add(1)
	for _, s := range streams {
		e := fill[s]
		if e == nil {
			continue
		}
		e.buf, e.cycles, e.instrs = bufs[s], c.Cycles, c.Instrs
		if tc.dir != "" {
			k.stream = s
			if err := tc.store(e, k, w); err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

// loadAll fills every entry of fill from its spill pair, reporting whether
// all of them loaded.
func (tc *TraceCache) loadAll(fill [2]*traceEntry, k traceKey, w workloads.Workload) bool {
	for _, s := range streams {
		if k.stream = s; fill[s] != nil && !tc.load(fill[s], k, w) {
			return false
		}
	}
	return true
}

// traceMetaVersion versions the sidecar schema; bump it to invalidate old
// spill directories wholesale. Version 2 spills one stream per pair;
// version 1 spilled both streams in one.
const traceMetaVersion = 2

// traceMeta is the JSON sidecar of one spill file: what the trace file
// itself cannot carry — the execution counts BenchResult needs, and the
// identity fields that double-check the trace file answers for the right
// capture. Format is informational: the reader checks the file's own
// magic.
type traceMeta struct {
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	// Stream names the one stream the trace file holds, "data" or
	// "fetch"; the file's other stream is empty.
	Stream string `json:"stream"`
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

// oneStream reports whether a sidecar's counts fit the stream it names:
// a pair holds that stream alone.
func oneStream(stream string, fetches, datas int) bool {
	return (stream == Data.String() && fetches == 0) || (stream == Fetch.String() && datas == 0)
}

// SpillSidecarCounts parses a spill pair's JSON sidecar and returns the
// event counts it promises the pair's trace file holds. ok is false unless
// the sidecar parses, is of the current version, carries both counts and
// names the one stream the file holds: a pair that fails it is one no
// TraceCache loads, so a store managing a spill directory can quarantine
// it without knowing the sidecar schema.
func SpillSidecarCounts(sidecar []byte) (fetches, datas int, ok bool) {
	var m struct {
		Version int    `json:"version"`
		Stream  string `json:"stream"`
		Fetches *int   `json:"fetches"`
		Datas   *int   `json:"datas"`
	}
	if json.Unmarshal(sidecar, &m) != nil || m.Version != traceMetaVersion || m.Fetches == nil || m.Datas == nil ||
		!oneStream(m.Stream, *m.Fetches, *m.Datas) {
		return 0, 0, false
	}
	return *m.Fetches, *m.Datas, true
}

// spillBase names the spill file pair for a key: a hash, so arbitrary
// workload names cannot escape the directory or collide after sanitizing.
func (tc *TraceCache) spillBase(k traceKey) string {
	h := sha256.Sum256(fmt.Appendf(nil, "wmtrace-spill-v%d|%s|%s|%016x|%d|%d",
		traceMetaVersion, k.stream, k.name, k.fingerprint, k.packet, k.maxInstrs))
	return filepath.Join(tc.dir, hex.EncodeToString(h[:8]))
}

// meta reads and checks the sidecar of k's spill pair: it must parse and
// name k's version, stream and capture.
func (tc *TraceCache) meta(k traceKey, w workloads.Workload) (traceMeta, bool) {
	var m traceMeta
	mb, err := tc.fs.ReadFile(fault.SiteTraceRead, tc.spillBase(k)+".json")
	ok := err == nil && json.Unmarshal(mb, &m) == nil &&
		m.Version == traceMetaVersion &&
		m.Stream == k.stream.String() &&
		m.Workload == k.name &&
		m.Spec == w.Spec &&
		m.ISA == w.ISA &&
		m.Fingerprint == fmt.Sprintf("%016x", k.fingerprint) &&
		m.PacketBytes == k.packet &&
		m.MaxInstrs == k.maxInstrs
	return m, ok
}

// load restores one stream's capture from its spill pair. Any mismatch,
// truncation or decode error degrades to a miss (returns false) and the
// stream is re-executed and re-stored — a corrupt file must never poison
// results. The file must hold only the sidecar's stream, and the other
// stream's sidecar, if there is one, must agree on the execution counts.
func (tc *TraceCache) load(e *traceEntry, k traceKey, w workloads.Workload) bool {
	m, ok := tc.meta(k, w)
	if !ok {
		return false
	}
	other := k
	other.stream = Data
	if k.stream == Data {
		other.stream = Fetch
	}
	if o, ok := tc.meta(other, w); ok && (o.Cycles != m.Cycles || o.Instrs != m.Instrs) {
		return false
	}
	f, err := tc.fs.Open(fault.SiteTraceRead, tc.spillBase(k)+".wmtrace")
	if err != nil {
		return false
	}
	defer f.Close()
	buf, err := trace.ReadBuffer(f)
	if err != nil || buf.NumFetches() != m.Fetches || buf.NumDatas() != m.Datas || !oneStream(m.Stream, m.Fetches, m.Datas) {
		return false
	}
	e.buf, e.cycles, e.instrs = buf, m.Cycles, m.Instrs
	return true
}

// store writes one stream's capture as a WMTRACE4 file plus sidecar, each
// through a temp file, fsync and rename so readers never observe a torn
// spill.
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
		Stream:      k.stream.String(),
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
