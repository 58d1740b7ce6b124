package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"waymemo/internal/fault"
)

// journalPath is the on-disk journal location for a store dir.
func journalPath(dir string) string { return filepath.Join(dir, journalFile) }

// TestJournalRoundTrip: submissions, point completions and terminal states
// survive a close/reopen; terminal sweeps are compacted away; the surviving
// sweep comes back with its completed points and a bumped epoch.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, fault.FS{})
	if err != nil {
		t.Fatal(err)
	}
	j.submitted("sw-aaaa", 1, tinyReq(64, 128))
	j.point("sw-aaaa", 0)
	j.submitted("sw-bbbb", 1, tinyReq(256))
	j.point("sw-bbbb", 0)
	j.terminal("sw-bbbb", "done")
	if len(j.resumableSweeps()) != 0 {
		t.Fatalf("fresh journal claims %d resumable sweeps", len(j.resumableSweeps()))
	}
	j.close()

	j2, err := openJournal(dir, fault.FS{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	res := j2.resumableSweeps()
	if len(res) != 1 {
		t.Fatalf("resumable sweeps = %d, want 1", len(res))
	}
	js := res[0]
	if js.ID != "sw-aaaa" || js.Epoch != 2 {
		t.Fatalf("resumed sweep = {%s, epoch %d}, want sw-aaaa at epoch 2", js.ID, js.Epoch)
	}
	if len(js.Done) != 1 || !js.Done[0] {
		t.Fatalf("resumed done set = %v, want {0}", js.Done)
	}
	if len(js.Req.Sets) != 2 || js.Req.Sets[0] != 64 || js.Req.Sets[1] != 128 {
		t.Fatalf("resumed request sets = %v", js.Req.Sets)
	}
	// The reopen compacted the file: the terminal sweep's records are gone.
	blob, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte("sw-bbbb")) {
		t.Error("terminal sweep survived compaction")
	}
	if !bytes.HasPrefix(blob, []byte(journalMagic)) {
		t.Error("compacted journal lost its magic")
	}
}

// replayedState opens the journal bytes in a fresh dir and returns the
// resumable sweeps, asserting open itself never fails however mangled the
// input is.
func replayedState(t *testing.T, blob []byte) []*journalSweep {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(dir, fault.FS{})
	if err != nil {
		t.Fatalf("openJournal on mangled input: %v", err)
	}
	defer j.close()
	return j.resumableSweeps()
}

// assertPrefixState checks the safety property corrupt replay must keep:
// whatever resumes is a degraded prefix of what was journaled — known sweep
// IDs only, no invented completed points, never more than the original.
// (A sweep whose 'S' body was invented by corruption cannot appear: the
// frame CRC covers the body, and a flipped tag byte stops replay.)
func assertPrefixState(t *testing.T, what string, got []*journalSweep, orig map[string]map[int]bool) {
	t.Helper()
	if len(got) > len(orig) {
		t.Fatalf("%s: resurrected %d sweeps from %d originals", what, len(got), len(orig))
	}
	for _, js := range got {
		want, ok := orig[js.ID]
		if !ok {
			t.Fatalf("%s: resurrected unknown sweep %q", what, js.ID)
		}
		for idx := range js.Done {
			if !want[idx] {
				t.Fatalf("%s: sweep %s invented completed point %d", what, js.ID, idx)
			}
		}
	}
}

// buildCorruptionFixture journals two live sweeps and returns the raw file.
func buildCorruptionFixture(t testing.TB) ([]byte, map[string]map[int]bool) {
	t.Helper()
	dir := t.TempDir()
	j, err := openJournal(dir, fault.FS{})
	if err != nil {
		t.Fatal(err)
	}
	j.submitted("sw-aaaa", 1, tinyReq(64, 128))
	j.point("sw-aaaa", 0)
	j.point("sw-aaaa", 1)
	j.submitted("sw-bbbb", 1, tinyReq(256, 512))
	j.point("sw-bbbb", 1)
	j.close()
	blob, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	orig := map[string]map[int]bool{
		"sw-aaaa": {0: true, 1: true},
		"sw-bbbb": {1: true},
	}
	return blob, orig
}

// TestJournalEveryByteFlipDegrades mirrors the trace codec's every-byte-flip
// test for the sweep journal: flipping any single byte of the file must
// never crash boot and never resurrect state that was not journaled — a
// corrupt journal costs resumption, never correctness.
func TestJournalEveryByteFlipDegrades(t *testing.T) {
	blob, orig := buildCorruptionFixture(t)
	lost := false
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xff
		got := replayedState(t, mut)
		assertPrefixState(t, "flip", got, orig)
		if len(got) < len(orig) {
			lost = true
		}
	}
	if !lost {
		t.Error("no byte flip ever degraded replay; the CRC framing is not being checked")
	}
}

// TestJournalTruncationDegrades: every possible crash-truncated tail of the
// journal replays to a valid prefix state — fewer sweeps or fewer completed
// points, never an error and never an invented one.
func TestJournalTruncationDegrades(t *testing.T) {
	blob, orig := buildCorruptionFixture(t)
	for cut := 0; cut <= len(blob); cut++ {
		got := replayedState(t, blob[:cut])
		assertPrefixState(t, "truncate", got, orig)
	}
}

// TestJournalAppendFaultsDegrade: with every journal append failing, the
// operations being journaled still succeed — failures are counted, never
// propagated — and nothing resumes on the next boot because nothing was
// durably logged.
func TestJournalAppendFaultsDegrade(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, fault.FS{Inj: mustFaults(t, "io.journal.append:err:1")})
	if err != nil {
		t.Fatal(err)
	}
	j.submitted("sw-aaaa", 1, tinyReq(64))
	j.point("sw-aaaa", 0)
	j.terminal("sw-aaaa", "done")
	records, appendErrs := j.stats()
	if appendErrs < 3 {
		t.Fatalf("append errors = %d, want every append counted", appendErrs)
	}
	if records != 0 {
		t.Fatalf("records = %d after all appends failed", records)
	}
	j.close()

	j2, err := openJournal(dir, fault.FS{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if n := len(j2.resumableSweeps()); n != 0 {
		t.Fatalf("resumed %d sweeps from a journal that never persisted", n)
	}
}

// TestServerBootWithGarbageJournal: a server rebooting over a store whose
// journal is pure garbage serves normally — nothing resumes, the store's
// entries stay intact and warm.
func TestServerBootWithGarbageJournal(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{StoreDir: dir, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s1.Submit(tinyReq(64))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	s1.Close()

	if err := os.WriteFile(journalPath(dir), bytes.Repeat([]byte("garbage!"), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{StoreDir: dir, Parallelism: 2})
	if err != nil {
		t.Fatalf("boot over garbage journal: %v", err)
	}
	t.Cleanup(s2.Close)
	st := s2.Stats()
	if st.ResumedSweeps != 0 {
		t.Fatalf("garbage journal resumed %d sweeps", st.ResumedSweeps)
	}
	if st.Store.ResultEntries != 1 {
		t.Fatalf("store entries after garbage-journal boot = %d, want 1", st.Store.ResultEntries)
	}
	rejob, err := s2.Submit(tinyReq(64))
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, rejob)
	if final.Metrics.StoreHits != 1 || final.Metrics.Simulated != 0 {
		t.Fatalf("rerun metrics = %+v, want pure store hit", final.Metrics)
	}
}

// FuzzJournalReplay feeds arbitrary bytes to the journal reader the way
// boot does: open, then resume or fail every non-terminal sweep. Replay
// must never panic; every sweep it resumes must re-normalize, or be marked
// failed in the journal as Server.resumeJob does; and the compaction that
// open writes must round-trip, so a second boot resumes exactly the
// sweeps that re-normalized, with the same completed points.
func FuzzJournalReplay(f *testing.F) {
	valid, _ := buildCorruptionFixture(f)
	f.Add(valid)
	f.Add([]byte(journalMagic))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte("garbage!"), 8))
	dir := f.TempDir()
	j, err := openJournal(dir, fault.FS{})
	if err != nil {
		f.Fatal(err)
	}
	j.submitted("sw-good", 1, tinyReq(64))
	j.point("sw-good", 0)
	j.submitted("sw-bad", 1, SweepRequest{Domain: "bogus"})
	j.submitted("sw-huge", 3, SweepRequest{Sets: []int{-1}, Ways: []int{1, 2, 3}})
	j.close()
	if blob, err := os.ReadFile(journalPath(dir)); err == nil {
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := openJournal(dir, fault.FS{})
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		resumed := map[string]map[int]bool{}
		for _, js := range j.resumableSweeps() {
			if _, err := js.Req.Space(); err != nil {
				j.terminal(js.ID, "failed")
				continue
			}
			resumed[js.ID] = js.Done
		}
		j.close()

		j2, err := openJournal(dir, fault.FS{})
		if err != nil {
			t.Fatalf("second openJournal: %v", err)
		}
		defer j2.close()
		again := j2.resumableSweeps()
		if len(again) != len(resumed) {
			t.Fatalf("second boot resumes %d sweeps, want the %d that re-normalized", len(again), len(resumed))
		}
		for _, js := range again {
			done, ok := resumed[js.ID]
			if !ok {
				t.Fatalf("second boot resumes %q, which was failed or never resumed", js.ID)
			}
			if _, err := js.Req.Space(); err != nil {
				t.Fatalf("second boot resumes %q, which no longer normalizes: %v", js.ID, err)
			}
			if len(js.Done) != len(done) {
				t.Fatalf("sweep %q: %d completed points after compaction, %d before", js.ID, len(js.Done), len(done))
			}
			for i := range done {
				if !js.Done[i] {
					t.Fatalf("sweep %q lost completed point %d in compaction", js.ID, i)
				}
			}
		}
	})
}

// TestJournalReopenKeepsOneHandle: each open compacts the journal, which
// reopens its append handle; open must keep that handle rather than open
// a second one over it, so a boot (or a fuzzer opening journals in a loop)
// does not leak a file descriptor.
func TestJournalReopenKeepsOneHandle(t *testing.T) {
	fds := func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count open files")
		}
		return len(des)
	}
	dir := t.TempDir()
	before := fds()
	for i := 0; i < 20; i++ {
		j, err := openJournal(dir, fault.FS{})
		if err != nil {
			t.Fatal(err)
		}
		j.close()
	}
	if after := fds(); after > before+2 {
		t.Fatalf("20 journal open/close cycles left %d more files open", after-before)
	}
}

// TestServerBootRemovesJournalTemps: a crash during journal compaction can
// leave the atomic rewrite's temp file next to the journal; the store's
// boot recovery removes it along with the result and trace temps, and the
// journal still opens.
func TestServerBootRemovesJournalTemps(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, journalFile+".tmp42")
	if err := os.WriteFile(tmp, []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{StoreDir: dir, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("journal compaction temp survived boot: %v", err)
	}
	if got := s.Stats().Store.RecoveredTemps; got != 1 {
		t.Fatalf("recovered temps = %d, want 1", got)
	}
}
