package serve

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"waymemo/internal/fault"
)

// The sweep journal is the daemon's write-ahead log of client work: an
// append-only, fsynced file under the store dir recording every accepted
// sweep ('S'), every grid point that finished ('P'), and every terminal
// transition ('T'). Boot replays the valid prefix and resurrects the
// non-terminal sweeps, so a SIGKILL loses at most the points that never
// hit the result store — and those re-simulate, they never duplicate.
//
// Record framing follows the trace file format (WMTRACE4): tag byte,
// uvarint body length, JSON body, CRC32-IEEE of the body (little-endian).
// Replay stops at the first frame that fails to parse or checksum — a torn tail, a flipped byte or
// an unknown tag all degrade to "fewer sweeps resume", never to a wrong
// resurrection, because the store remains the sole durability authority
// for results.
//
// The journal itself is an optimization, not a correctness dependency:
// every append routes through fault.FS at the io.journal.* sites and an
// append failure only increments a counter. A daemon with a dead journal
// keeps serving; it just forgets in-flight sweeps on the next crash.
const (
	journalFile  = "journal.wal"
	journalMagic = "WMSWJNL1"

	jTagSubmit   = 'S'
	jTagPoint    = 'P'
	jTagTerminal = 'T'

	// maxJournalBody bounds a single record body so a corrupt length varint
	// cannot ask replay to trust a multi-gigabyte frame.
	maxJournalBody = 4 << 20

	// compactAfterDead triggers a compaction rewrite once this many terminal
	// sweeps' records are sitting dead in the file.
	compactAfterDead = 32
)

// journalSweep is the 'S' record body and the replayed in-memory state of
// one live sweep. Done is rebuilt from 'P' records, not serialized.
type journalSweep struct {
	ID    string       `json:"id"`
	Epoch int          `json:"epoch"`
	Req   SweepRequest `json:"req"`
	Done  map[int]bool `json:"-"`
}

// journalPoint is the 'P' record body: grid point Index of sweep ID
// completed (its result is in the store).
type journalPoint struct {
	ID    string `json:"id"`
	Index int    `json:"i"`
}

// journalTerminal is the 'T' record body: sweep ID reached State ("done"
// or "failed") and must not be resumed.
type journalTerminal struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// journal is the write-ahead sweep log. Its methods never fail the
// operations they log: an append error is counted and swallowed.
type journal struct {
	fs   fault.FS
	path string

	mu         sync.Mutex
	f          *os.File
	live       map[string]*journalSweep
	order      []string // live sweep IDs, first-seen order
	dead       int      // terminal sweeps' records still in the file
	records    int64    // frames replayed + successfully appended
	appendErrs int64
	resumable  []*journalSweep // boot-time snapshot for Server resume
}

// openJournal replays any existing journal at dir, bumps the epoch of every
// surviving sweep (their event logs are about to be rebuilt, and the epoch
// is what tells a reattaching SSE follower to reset its cursor), compacts
// the file down to the survivors and opens it for appending. Every failure
// mode short of "cannot create a file in dir" degrades: a missing,
// unreadable or corrupt journal just resumes nothing.
func openJournal(dir string, fs fault.FS) (*journal, error) {
	j := &journal{
		fs:   fs,
		path: filepath.Join(dir, journalFile),
		live: map[string]*journalSweep{},
	}
	if blob, err := fs.ReadFile(fault.SiteJournalRead, j.path); err == nil {
		j.replay(blob)
	}
	for _, js := range j.live {
		js.Epoch++
	}
	j.resumable = j.liveOrdered()
	// Rewrite the file down to the survivors (with their bumped epochs) and
	// open it for appending. The rewrite is atomic; if it fails — injected
	// or real — fall back to appending the bumped state to the old file so
	// the epoch bump is durable either way. The journal is not shared yet,
	// so nothing is locked, and a successful rewrite has already reopened
	// the append handle.
	rewrote := j.rewriteLocked() == nil
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		j.f = f
	}
	if st, err := j.f.Stat(); err == nil && st.Size() == 0 {
		// The magic sits outside the record framing.
		if j.fs.AppendSync(fault.SiteJournalAppend, j.f, []byte(journalMagic)) != nil {
			j.appendErrs++
		}
	}
	if !rewrote {
		for _, js := range j.liveOrdered() {
			for _, rec := range stateRecords(js) {
				j.appendLocked(rec.tag, rec.body)
			}
		}
	}
	j.dead = 0
	return j, nil
}

// replay applies the valid record prefix of blob to the in-memory state.
func (j *journal) replay(blob []byte) {
	if len(blob) < len(journalMagic) || string(blob[:len(journalMagic)]) != journalMagic {
		return
	}
	rest := blob[len(journalMagic):]
	for len(rest) > 0 {
		tag := rest[0]
		n, w := binary.Uvarint(rest[1:])
		if w <= 0 || n > maxJournalBody {
			return
		}
		start := 1 + w
		end := start + int(n) + 4
		if end > len(rest) {
			return
		}
		body := rest[start : start+int(n)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[start+int(n):end]) {
			return
		}
		if !j.apply(tag, body) {
			return
		}
		j.records++
		rest = rest[end:]
	}
}

// apply folds one decoded record into the live map. An undecodable body or
// unknown tag stops replay (false): past that point the file cannot be
// trusted.
func (j *journal) apply(tag byte, body []byte) bool {
	switch tag {
	case jTagSubmit:
		var js journalSweep
		if json.Unmarshal(body, &js) != nil || js.ID == "" {
			return false
		}
		js.Done = map[int]bool{}
		if _, seen := j.live[js.ID]; !seen {
			j.order = append(j.order, js.ID)
		}
		j.live[js.ID] = &js
	case jTagPoint:
		var jp journalPoint
		if json.Unmarshal(body, &jp) != nil {
			return false
		}
		// A point for a sweep we no longer track (compacted away or from a
		// superseded epoch) is stale, not corrupt.
		if js, ok := j.live[jp.ID]; ok {
			js.Done[jp.Index] = true
		}
	case jTagTerminal:
		var jt journalTerminal
		if json.Unmarshal(body, &jt) != nil {
			return false
		}
		j.dropLocked(jt.ID)
	default:
		return false
	}
	return true
}

func (j *journal) dropLocked(id string) {
	if _, ok := j.live[id]; !ok {
		return
	}
	delete(j.live, id)
	for i, v := range j.order {
		if v == id {
			j.order = append(j.order[:i], j.order[i+1:]...)
			break
		}
	}
	j.dead++
}

// liveOrdered snapshots the live sweeps sorted by ID — the deterministic
// resume order.
func (j *journal) liveOrdered() []*journalSweep {
	out := make([]*journalSweep, 0, len(j.live))
	for _, id := range j.order {
		out = append(out, j.live[id])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// resumableSweeps returns the non-terminal sweeps found at open, for the
// server's boot resume pass.
func (j *journal) resumableSweeps() []*journalSweep {
	return j.resumable
}

// submitted logs a sweep acceptance (fresh or a failed sweep's replacement
// at a higher epoch).
func (j *journal) submitted(id string, epoch int, req SweepRequest) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if old, seen := j.live[id]; seen {
		old.Epoch, old.Req, old.Done = epoch, req, map[int]bool{}
	} else {
		j.order = append(j.order, id)
		j.live[id] = &journalSweep{ID: id, Epoch: epoch, Req: req, Done: map[int]bool{}}
	}
	j.appendLocked(jTagSubmit, mustJSON(journalSweep{ID: id, Epoch: epoch, Req: req}))
}

// point logs one completed grid point (its result reached the store).
func (j *journal) point(id string, index int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if js, ok := j.live[id]; ok {
		js.Done[index] = true
	}
	j.appendLocked(jTagPoint, mustJSON(journalPoint{ID: id, Index: index}))
}

// terminal logs a sweep reaching "done" or "failed" and compacts once
// enough dead records accumulate.
func (j *journal) terminal(id, state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dropLocked(id)
	j.appendLocked(jTagTerminal, mustJSON(journalTerminal{ID: id, State: state}))
	if j.dead >= compactAfterDead {
		if j.rewriteLocked() == nil {
			j.dead = 0
		}
	}
}

// appendLocked frames and appends one record through the fault layer. A
// failed append is counted and swallowed: the journal must never fail the
// operation it logs.
func (j *journal) appendLocked(tag byte, body []byte) {
	frame := appendFrame(make([]byte, 0, len(body)+16), tag, body)
	if j.f == nil {
		j.appendErrs++
		return
	}
	if err := j.fs.AppendSync(fault.SiteJournalAppend, j.f, frame); err != nil {
		j.appendErrs++
		return
	}
	j.records++
}

// journalRecord is one unframed record.
type journalRecord struct {
	tag  byte
	body []byte
}

// stateRecords re-declares one live sweep: its S record, then a P record
// per completed point in index order.
func stateRecords(js *journalSweep) []journalRecord {
	recs := []journalRecord{{jTagSubmit, mustJSON(journalSweep{ID: js.ID, Epoch: js.Epoch, Req: js.Req})}}
	idxs := make([]int, 0, len(js.Done))
	for i := range js.Done {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		recs = append(recs, journalRecord{jTagPoint, mustJSON(journalPoint{ID: js.ID, Index: i})})
	}
	return recs
}

// rewriteLocked compacts the journal to only the live sweeps, atomically.
func (j *journal) rewriteLocked() error {
	var buf []byte
	buf = append(buf, journalMagic...)
	for _, js := range j.liveOrdered() {
		for _, rec := range stateRecords(js) {
			buf = appendFrame(buf, rec.tag, rec.body)
		}
	}
	err := j.fs.WriteFileAtomic(fault.SiteJournalCompact, j.path, func(w io.Writer) error {
		_, werr := w.Write(buf)
		return werr
	})
	if err != nil {
		return err
	}
	// The rename replaced the inode; reopen the append handle on the new
	// file. The old handle keeps the orphan alive until closed.
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = f
	return nil
}

func appendFrame(buf []byte, tag byte, body []byte) []byte {
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(buf, crc[:]...)
}

func mustJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

// stats snapshots the journal counters for /v1/stats.
func (j *journal) stats() (records, appendErrs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records, j.appendErrs
}

// close closes the append handle. Late appends from still-draining sweeps
// after close are counted as append errors, which is the right shape for
// "the process is exiting anyway".
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
