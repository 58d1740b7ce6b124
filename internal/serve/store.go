package serve

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"waymemo/internal/explore"
	"waymemo/internal/fault"
	"waymemo/internal/suite"
	"waymemo/internal/trace"
)

// Store is the daemon's shared content-addressed result + trace store: an
// explore.DirCache of grid-point results plus the suite trace cache's
// WMTRACE4 spill directory, under one byte budget with LRU eviction.
//
// Results are tracked with in-memory recency (every Get bumps the entry);
// trace spill pairs are aged by file modification time, since the trace
// cache writes them directly. When the combined footprint exceeds the
// budget, Enforce deletes the least-recently-used items — whichever of the
// oldest result and the oldest trace pair is staler — until under budget.
// Eviction can never make results wrong: an evicted result re-simulates
// and an evicted trace re-captures on next use.
type Store struct {
	results  *explore.DirCache
	traceDir string // "" when the store keeps no traces
	budget   int64  // bytes across results + traces; 0 = unlimited
	fs       fault.FS

	mu          sync.Mutex
	ll          *list.List               // LRU: front = most recent
	ent         map[string]*list.Element // key -> element holding *storeEntry
	resultBytes int64

	hits, misses, puts              int64
	resultEvictions, traceEvictions int64

	// Startup-recovery counters (see recoverDir): what the boot sweep
	// removed or quarantined.
	recoveredResults, recoveredTraces, recoveredTemps int64
}

// storeEntry is one result's LRU bookkeeping.
type storeEntry struct {
	key     string
	bytes   int64
	lastUse time.Time
}

// StoreStats is the store's accounting snapshot, as served by /v1/stats.
type StoreStats struct {
	ResultEntries   int   `json:"result_entries"`
	ResultBytes     int64 `json:"result_bytes"`
	TraceFiles      int   `json:"trace_files"` // spill pairs (.wmtrace + sidecar)
	TraceBytes      int64 `json:"trace_bytes"`
	BudgetBytes     int64 `json:"budget_bytes"` // 0 = unlimited
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Puts            int64 `json:"puts"`
	ResultEvictions int64 `json:"result_evictions"`
	TraceEvictions  int64 `json:"trace_evictions"`

	// The startup recovery sweep's findings: corrupt result entries and
	// trace pairs quarantined (renamed *.bad) and leftover atomic-write temp
	// files removed. Nonzero numbers after a crash are the store working as
	// designed — every quarantined item re-simulates or re-captures on next
	// use.
	RecoveredResults int64 `json:"recovered_results"`
	RecoveredTraces  int64 `json:"recovered_traces"`
	RecoveredTemps   int64 `json:"recovered_temps"`
}

// OpenStore opens (creating as needed, parents included) a store rooted at
// dir: results under dir/results, trace spills under dir/traces. budget is
// the combined byte budget, 0 for unlimited.
//
// Opening begins with a crash-recovery sweep: leftover atomic-write temp
// files (a writer killed before its rename) are removed, and result entries
// or trace pairs that do not read back intact — torn by a crash that beat
// the fsync, bit-flipped, or half a pair — are quarantined by renaming them
// *.bad rather than adopted or silently served. A quarantined item only
// costs a re-simulation or re-capture; it can never be replayed as a
// result. The surviving entries are adopted with their file times as
// initial recency, so a restarted daemon resumes warm.
func OpenStore(dir string, budget int64) (*Store, error) {
	return OpenStoreFS(dir, budget, fault.FS{})
}

// OpenStoreFS is OpenStore with the store's file I/O — including the
// recovery sweep's reads — routed through a fault-injection shim; the zero
// FS is a passthrough. Under an injected-read chaos boot the sweep may
// quarantine healthy entries; that only costs re-simulation, which is the
// degradation the layer exists to prove safe.
func OpenStoreFS(dir string, budget int64, fs fault.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: empty store directory")
	}
	if budget < 0 {
		return nil, fmt.Errorf("serve: negative store budget %d", budget)
	}
	results, err := explore.NewDirCacheFS(filepath.Join(dir, "results"), fs)
	if err != nil {
		return nil, err
	}
	traceDir := filepath.Join(dir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store trace dir: %w", err)
	}
	st := &Store{
		results:  results,
		traceDir: traceDir,
		budget:   budget,
		fs:       fs,
		ll:       list.New(),
		ent:      map[string]*list.Element{},
	}
	st.recoverBoot(dir)
	ents, err := results.Entries() // oldest first; recovery already ran, so all intact
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		st.resultBytes += e.Bytes
		el := st.ll.PushFront(&storeEntry{key: e.Key, bytes: e.Bytes, lastUse: e.ModTime})
		st.ent[e.Key] = el
	}
	return st, nil
}

// recoverBoot is the startup crash-recovery sweep of the store rooted at
// root: temp files out, corrupt entries quarantined. It never fails the
// open — an entry it cannot fix is left for Get to treat as a miss, which
// is already safe.
func (st *Store) recoverBoot(root string) {
	// 1. Leftover atomic-write temps (named *.tmp<rand> by CreateTemp): a
	// writer died between create and rename — of a result, a trace, or the
	// sweep journal's compaction in the root. They were never visible to
	// readers; just remove them.
	for _, dir := range []string{root, st.results.Dir(), st.traceDir} {
		des, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, de := range des {
			if !de.IsDir() && strings.Contains(de.Name(), ".tmp") {
				if os.Remove(filepath.Join(dir, de.Name())) == nil {
					st.recoveredTemps++
				}
			}
		}
	}
	// 2. Result entries that do not decode back to a plausible PointResult
	// (torn write that beat the fsync, truncation, bit rot). Get already
	// treats them as misses; quarantining at boot makes the damage visible
	// in stats and keeps the LRU accounting from indexing dead weight.
	if ents, err := st.results.Entries(); err == nil {
		for _, e := range ents {
			if _, ok := st.results.Get(e.Key); !ok {
				p := filepath.Join(st.results.Dir(), e.Key+".json")
				if os.Rename(p, p+".bad") == nil {
					st.recoveredResults++
				}
			}
		}
	}
	// 3. Trace spill pairs: a pair must have both halves, a sidecar that
	// parses, and a trace file whose checksummed decode matches the
	// sidecar's event counts. Anything less is quarantined whole —
	// suite.TraceCache would already treat it as a miss, but a half-read
	// torn file wastes every future load attempt until someone cleans it.
	pairs, _ := st.scanTraces()
	for _, p := range pairs {
		if st.tracePairIntact(p) {
			continue
		}
		quarantined := false
		if p.trace && os.Rename(p.base+".wmtrace", p.base+".wmtrace.bad") == nil {
			quarantined = true
		}
		if p.sidecar && os.Rename(p.base+".json", p.base+".json.bad") == nil {
			quarantined = true
		}
		if quarantined {
			st.recoveredTraces++
		}
	}
}

// tracePairIntact validates one spill pair end to end: both halves present,
// the sidecar one a TraceCache could load (suite.SpillSidecarCounts), and
// the trace file decodes as WMTRACE4 (checksummed) and agrees with its
// event counts. A pair of an older sidecar version is whole but dead
// weight: no TraceCache computes its name.
func (st *Store) tracePairIntact(p tracePair) bool {
	if !p.trace || !p.sidecar {
		return false
	}
	mb, err := st.fs.ReadFile(fault.SiteTraceRead, p.base+".json")
	if err != nil {
		return false
	}
	fetches, datas, ok := suite.SpillSidecarCounts(mb)
	if !ok {
		return false
	}
	f, err := st.fs.Open(fault.SiteTraceRead, p.base+".wmtrace")
	if err != nil {
		return false
	}
	defer f.Close()
	buf, err := trace.ReadBuffer(f)
	return err == nil && buf.NumFetches() == fetches && buf.NumDatas() == datas
}

// ResultDir and TraceDir return the store's component directories; the
// server hands TraceDir to suite.NewDirTraceCache so captures spill into
// the budgeted store.
func (st *Store) ResultDir() string { return st.results.Dir() }
func (st *Store) TraceDir() string  { return st.traceDir }

// Get loads a stored grid point and bumps its recency. A corrupt or absent
// entry is a miss.
func (st *Store) Get(key string) (*explore.PointResult, bool) {
	pr, ok := st.results.Get(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if !ok {
		st.misses++
		// A vanished or corrupt file no longer occupies space it is
		// indexed for; drop the stale entry so accounting stays honest.
		if el, idxed := st.ent[key]; idxed {
			if e, still := st.results.Entry(key); still {
				el.Value.(*storeEntry).bytes = e.Bytes
			} else {
				st.resultBytes -= el.Value.(*storeEntry).bytes
				st.ll.Remove(el)
				delete(st.ent, key)
			}
		}
		return nil, false
	}
	st.hits++
	st.touch(key)
	return pr, true
}

// Put stores a grid point and accounts it. The caller is expected to run
// Enforce (directly or via the server's sweep epilogue) to apply the
// budget; Put itself only keeps the books.
func (st *Store) Put(key string, pr *explore.PointResult) error {
	if err := st.results.Put(key, pr); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.puts++
	st.touch(key)
	return nil
}

// touch bumps key to the LRU front, (re)stating its size. Callers hold mu.
func (st *Store) touch(key string) {
	var bytes int64
	if e, ok := st.results.Entry(key); ok {
		bytes = e.Bytes
	}
	if el, ok := st.ent[key]; ok {
		se := el.Value.(*storeEntry)
		st.resultBytes += bytes - se.bytes
		se.bytes = bytes
		se.lastUse = time.Now()
		st.ll.MoveToFront(el)
		return
	}
	st.resultBytes += bytes
	st.ent[key] = st.ll.PushFront(&storeEntry{key: key, bytes: bytes, lastUse: time.Now()})
}

// tracePair is one spill pair on disk (WMTRACE4 file + JSON sidecar), or
// whichever half of one is present.
type tracePair struct {
	base           string // path without extension
	bytes          int64
	modTime        time.Time // the trace file's
	trace, sidecar bool
}

// scanTraces lists the spill pairs, oldest first, and their total bytes.
func (st *Store) scanTraces() ([]tracePair, int64) {
	des, err := os.ReadDir(st.traceDir)
	if err != nil {
		return nil, 0
	}
	pairs := map[string]*tracePair{}
	for _, de := range des {
		base, isTrace := strings.CutSuffix(de.Name(), ".wmtrace")
		if !isTrace {
			var ok bool
			if base, ok = strings.CutSuffix(de.Name(), ".json"); !ok {
				continue
			}
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		p := pairs[base]
		if p == nil {
			p = &tracePair{base: filepath.Join(st.traceDir, base)}
			pairs[base] = p
		}
		p.bytes += info.Size()
		if isTrace {
			p.trace, p.modTime = true, info.ModTime()
		} else {
			p.sidecar = true
		}
	}
	out := make([]tracePair, 0, len(pairs))
	var total int64
	for _, p := range pairs {
		out = append(out, *p)
		total += p.bytes
	}
	sort.Slice(out, func(i, j int) bool { return out[i].modTime.Before(out[j].modTime) })
	return out, total
}

// Enforce applies the byte budget: while results + traces exceed it, the
// LRU item — the older of the least-recently-used result and the oldest
// trace pair — is deleted. It returns how many results and trace pairs
// were evicted. With no budget it is a no-op.
func (st *Store) Enforce() (results, traces int) {
	if st.budget == 0 {
		return 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	pairs, traceBytes := st.scanTraces()
	for st.resultBytes+traceBytes > st.budget {
		oldestRes := st.ll.Back()
		switch {
		case oldestRes == nil && len(pairs) == 0:
			return results, traces
		case oldestRes == nil || (len(pairs) > 0 && pairs[0].modTime.Before(oldestRes.Value.(*storeEntry).lastUse)):
			p := pairs[0]
			pairs = pairs[1:]
			os.Remove(p.base + ".wmtrace")
			os.Remove(p.base + ".json")
			traceBytes -= p.bytes
			traces++
			st.traceEvictions++
		default:
			se := oldestRes.Value.(*storeEntry)
			if err := st.results.Delete(se.key); err != nil {
				// Undeletable entry: stop rather than spin; the next
				// Enforce retries.
				return results, traces
			}
			st.resultBytes -= se.bytes
			st.ll.Remove(oldestRes)
			delete(st.ent, se.key)
			results++
			st.resultEvictions++
		}
	}
	return results, traces
}

// Stats snapshots the store's accounting, rescanning the trace directory.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	pairs, traceBytes := st.scanTraces()
	return StoreStats{
		ResultEntries:   len(st.ent),
		ResultBytes:     st.resultBytes,
		TraceFiles:      len(pairs),
		TraceBytes:      traceBytes,
		BudgetBytes:     st.budget,
		Hits:            st.hits,
		Misses:          st.misses,
		Puts:            st.puts,
		ResultEvictions: st.resultEvictions,
		TraceEvictions:  st.traceEvictions,

		RecoveredResults: st.recoveredResults,
		RecoveredTraces:  st.recoveredTraces,
		RecoveredTemps:   st.recoveredTemps,
	}
}
