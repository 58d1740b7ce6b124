package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/fault"
	"waymemo/internal/isa"
	"waymemo/internal/suite"
	"waymemo/internal/workloads"
)

// keyVersion is baked into every cache key. Bump it whenever the simulated
// semantics of a grid point change (simulator, controllers, power models),
// so stale results can never be replayed as current ones. The golden hash
// test in cache_test.go catches accidental key-scheme changes.
const keyVersion = "explore-v1"

// keyMaterial is the canonical, exhaustive description of one grid point's
// inputs. It is serialized as JSON (stable field order) and hashed; every
// field that influences a PointResult must appear here.
type keyMaterial struct {
	Version   string `json:"version"`
	Domain    string `json:"domain"`
	Sets      int    `json:"sets"`
	Ways      int    `json:"ways"`
	LineBytes int    `json:"line_bytes"`
	Workload  string `json:"workload"`
	// WorkloadFP pins a synthetic workload's generated content (empty for
	// the paper benchmarks, so their keys are unchanged from explore-v1's
	// introduction). The canonical spec in Workload names the generator's
	// inputs; the fingerprint covers its output, so a generator change
	// (GenVersion bump) retires stale synthetic entries instead of
	// replaying them.
	WorkloadFP string `json:"workload_fp,omitempty"`
	// ISA names the frontend the workload executes under (empty for the
	// default FRVL frontend, so pre-existing keys are unchanged). Workload
	// names already carry an "rv32:" prefix, but the explicit field keeps
	// the keyspace partitioned even for embedder-supplied names that don't
	// follow the prefix convention — a cross-ISA key collision would
	// silently serve one ISA's energy numbers as the other's.
	ISA         string   `json:"isa,omitempty"`
	PacketBytes uint32   `json:"packet_bytes"`
	MABs        [][2]int `json:"mabs"` // [tag entries, set entries] per technique
}

// Key returns the content hash that names one grid point in the result
// cache: a hex SHA-256 over the geometry, the technique set (the baseline is
// implied; MAB configurations are listed in grid order), the workload name
// and the fetch-packet size.
//
// Workloads are identified by name: the seven paper benchmarks are
// deterministic programs baked into the binary, so the name pins the
// content. Synthetic workloads go through KeyWorkload, which adds their
// content fingerprint. Embedders sweeping other ad hoc workloads must
// either name them uniquely or use distinct cache directories.
func Key(domain suite.Domain, geo cache.Config, workload string, packetBytes uint32, mabs []core.Config) string {
	return key(domain, geo, workload, "", "", packetBytes, mabs)
}

// KeyWorkload is Key for a Workload value: synthetic workloads (non-empty
// Spec) are additionally keyed by their content fingerprint, non-default
// frontends (non-empty ISA) by the ISA name, and the packet-size default is
// resolved per frontend (0 means 4 bytes under rv32, 8 under FRVL),
// everything else reduces to Key on the name.
func KeyWorkload(domain suite.Domain, geo cache.Config, w workloads.Workload, packetBytes uint32, mabs []core.Config) string {
	fp := ""
	if w.Spec != "" {
		fp = fmt.Sprintf("%016x", w.Fingerprint())
	}
	if packetBytes == 0 {
		packetBytes = w.DefaultPacketBytes()
	}
	return key(domain, geo, w.Name, fp, w.ISA, packetBytes, mabs)
}

func key(domain suite.Domain, geo cache.Config, workload, workloadFP, isaName string, packetBytes uint32, mabs []core.Config) string {
	if packetBytes == 0 {
		// The simulator treats 0 as the 8-byte VLIW packet; normalize so
		// explicit-8 and defaulted sweeps share cache entries.
		packetBytes = isa.PacketBytes
	}
	m := keyMaterial{
		Version:     keyVersion,
		Domain:      domain.String(),
		Sets:        geo.Sets,
		Ways:        geo.Ways,
		LineBytes:   geo.LineBytes,
		Workload:    workload,
		WorkloadFP:  workloadFP,
		ISA:         isaName,
		PacketBytes: packetBytes,
		MABs:        make([][2]int, 0, len(mabs)),
	}
	for _, c := range mabs {
		m.MABs = append(m.MABs, [2]int{c.TagEntries, c.SetEntries})
	}
	blob, err := json.Marshal(m)
	if err != nil {
		// keyMaterial contains only plain values; Marshal cannot fail.
		panic(fmt.Sprintf("explore: key material: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Cache is the shard scheduler's resolver. Resolve answers a grid point's
// key with a hit (a stored result that passes valid), a join (a wait that
// returns the result or failure another sweep simulating the point
// publishes), or a claim (neither: this sweep simulates it). Resolve must
// not block on another sweep; that is what join is for. Every claimed
// point is published exactly once, with its result or the error that
// stopped it, and Publish returns the error the sweep fails the point with
// (nil once a result is stored).
type Cache interface {
	Resolve(key string, valid func(*PointResult) bool) (hit *PointResult, join func(context.Context) (*PointResult, error))
	Publish(key string, r *PointResult, err error) error
}

// DirCache is the on-disk Cache: one pretty-printed JSON file per grid
// point, named <key>.json. Unreadable or corrupt files are misses (the
// point is re-simulated and the file rewritten), so a damaged cache
// directory degrades to a cold one instead of failing the sweep.
//
// A DirCache is safe for concurrent use: Put is atomic (temp file + fsync +
// rename) and Get tolerates concurrent rewrites of the same key, so many
// sweeps — or many clients of one serve daemon — can share one directory.
type DirCache struct {
	dir string
	fs  fault.FS
}

// NewDirCache creates the directory — including any missing parents, so
// nested paths like "cache/results/v1" work — and returns a cache over it.
func NewDirCache(dir string) (*DirCache, error) {
	return NewDirCacheFS(dir, fault.FS{})
}

// NewDirCacheFS is NewDirCache with the cache's entry I/O routed through a
// fault-injection shim (sites io.result.*); the zero FS is a passthrough.
func NewDirCacheFS(dir string, fs fault.FS) (*DirCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("explore: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("explore: cache dir: %w", err)
	}
	return &DirCache{dir: dir, fs: fs}, nil
}

// Dir returns the cache directory.
func (c *DirCache) Dir() string { return c.dir }

func (c *DirCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get loads a memoized point. Any read or decode failure — missing file,
// truncated JSON, wrong shape — is a miss.
func (c *DirCache) Get(key string) (*PointResult, bool) {
	blob, err := c.fs.ReadFile(fault.SiteResultRead, c.path(key))
	if err != nil {
		return nil, false
	}
	var r PointResult
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, false
	}
	// A result that never ran is not a result: guard against files holding
	// valid JSON of the wrong shape (e.g. `{}` or `null`).
	if r.Workload == "" || r.Cycles == 0 || len(r.Techs) == 0 {
		return nil, false
	}
	return &r, true
}

// Resolve answers a stored result that passes valid as a hit and anything
// else as a claim: a directory has no in-flight sweeps to join.
func (c *DirCache) Resolve(key string, valid func(*PointResult) bool) (*PointResult, func(context.Context) (*PointResult, error)) {
	if r, ok := c.Get(key); ok && valid(r) {
		return r, nil
	}
	return nil, nil
}

// Publish stores a simulated point with Put; a failed point stores nothing
// and keeps its error.
func (c *DirCache) Publish(key string, r *PointResult, err error) error {
	if err != nil {
		return err
	}
	return c.Put(key, r)
}

// CacheStats describes a DirCache's on-disk footprint.
type CacheStats struct {
	// Entries is the number of stored grid points and Bytes their total
	// file size. Both count only well-named entry files (<key>.json), so
	// stray temp files from a killed writer do not inflate the accounting.
	Entries int
	Bytes   int64
}

// Entry describes one stored grid point, for size accounting and eviction.
type Entry struct {
	Key     string
	Bytes   int64
	ModTime time.Time
}

// Entries lists every stored grid point, oldest-modified first — the scan
// a store's size accounting and LRU eviction start from. Files that vanish
// mid-scan (a concurrent eviction) are skipped.
func (c *DirCache) Entries() ([]Entry, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("explore: cache scan: %w", err)
	}
	out := make([]Entry, 0, len(des))
	for _, de := range des {
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, Entry{Key: key, Bytes: info.Size(), ModTime: info.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModTime.Before(out[j].ModTime) })
	return out, nil
}

// Entry stats one stored grid point; ok is false for an absent key.
func (c *DirCache) Entry(key string) (Entry, bool) {
	info, err := os.Stat(c.path(key))
	if err != nil {
		return Entry{}, false
	}
	return Entry{Key: key, Bytes: info.Size(), ModTime: info.ModTime()}, true
}

// Stats totals the cache's stored entries and bytes.
func (c *DirCache) Stats() (CacheStats, error) {
	ents, err := c.Entries()
	if err != nil {
		return CacheStats{}, err
	}
	s := CacheStats{Entries: len(ents)}
	for _, e := range ents {
		s.Bytes += e.Bytes
	}
	return s, nil
}

// Delete removes a stored grid point; deleting an absent key is a no-op.
// The next Get for the key is a miss and the point re-simulates — eviction
// can never make results wrong, only colder.
func (c *DirCache) Delete(key string) error {
	if err := c.fs.Remove(fault.SiteResultDelete, c.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("explore: cache delete: %w", err)
	}
	return nil
}

// Put stores a completed point atomically (temp file + fsync + rename), so
// a sweep killed mid-write leaves no half-written entry behind for Get to
// trip on — at worst a temp file for the store's startup sweep.
func (c *DirCache) Put(key string, r *PointResult) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("explore: encode point: %w", err)
	}
	err = c.fs.WriteFileAtomic(fault.SiteResultWrite, c.path(key), func(w io.Writer) error {
		_, werr := w.Write(append(blob, '\n'))
		return werr
	})
	if err != nil {
		return fmt.Errorf("explore: cache write: %w", err)
	}
	return nil
}
