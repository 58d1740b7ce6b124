package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"waymemo/internal/cache"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

var geo = cache.FRV32K

// addrOf builds an address from (tag, set, offset) under FRV32K geometry.
func addrOf(tag, set, off uint32) uint32 {
	return tag<<14 | set<<5 | off
}

func TestInRange(t *testing.T) {
	m := New(DefaultD, geo)
	for _, d := range []int32{0, 1, -1, 16383, -16384, 8, 100} {
		if !m.InRange(d) {
			t.Errorf("disp %d should be in range", d)
		}
	}
	for _, d := range []int32{16384, -16385, 1 << 20, -(1 << 20)} {
		if m.InRange(d) {
			t.Errorf("disp %d should be out of range", d)
		}
	}
}

// TestPredictedAddressProperty is the cflag-arithmetic property at the heart
// of §3.1: the tag predicted from the base's upper 18 bits, the carry of the
// 14-bit adder and the displacement sign must equal the real upper bits of
// base+disp for every in-range displacement.
func TestPredictedAddressProperty(t *testing.T) {
	m := New(DefaultD, geo)
	f := func(base uint32, rawDisp int32) bool {
		disp := rawDisp % (1 << 14) // force in range
		res := m.Probe(base, disp)
		if !res.InRange {
			return false
		}
		return res.PredictedAddr == base+uint32(disp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeMissThenUpdateHit(t *testing.T) {
	m := New(DefaultD, geo)
	base, disp := addrOf(100, 7, 0), int32(24)
	if m.Probe(base, disp).Hit {
		t.Fatal("hit in empty MAB")
	}
	m.Update(base, disp, 1)
	res := m.Probe(base, disp)
	if !res.Hit || res.Way != 1 {
		t.Fatalf("after update: %+v", res)
	}
	if m.ValidPairs() != 1 {
		t.Fatalf("valid pairs = %d", m.ValidPairs())
	}
}

// TestSameLineDifferentKeyMisses documents that the MAB keys on the base
// address, not the final tag: two expressions of the same address with
// different (base, cflag) occupy different entries.
func TestSameLineDifferentKeyMisses(t *testing.T) {
	m := New(DefaultD, geo)
	target := addrOf(100, 0, 8)
	m.Update(target, 0, 0) // key = (base18 100, carry 0, positive)
	// Same target from a base 32 bytes below: the base sits in the previous
	// 16KB region (base18 99) and the add carries, so the key is
	// (99, carry 1, positive) — same physical tag, different MAB entry.
	res := m.Probe(target-32, 32)
	if res.PredictedAddr != target {
		t.Fatalf("prediction broken: %#x", res.PredictedAddr)
	}
	if res.Hit {
		t.Fatal("distinct key unexpectedly hit")
	}
	// ...whereas probing with the exact installing key hits.
	if !m.Probe(target, 0).Hit {
		t.Fatal("installing key missed")
	}
}

// TestCrossProduct checks that Nt×Ns pairs are addressable: with 2 tags and
// 8 sets, 16 addresses can be memoized simultaneously (the paper's example).
func TestCrossProduct(t *testing.T) {
	m := New(Config{TagEntries: 2, SetEntries: 8}, geo)
	for ti := uint32(0); ti < 2; ti++ {
		for si := uint32(0); si < 8; si++ {
			m.Update(addrOf(100+ti, si, 0), 0, int(ti)&1)
		}
	}
	if m.ValidPairs() != 16 {
		t.Fatalf("valid pairs = %d, want 16", m.ValidPairs())
	}
	for ti := uint32(0); ti < 2; ti++ {
		for si := uint32(0); si < 8; si++ {
			res := m.Probe(addrOf(100+ti, si, 0), 0)
			if !res.Hit || res.Way != int(ti)&1 {
				t.Fatalf("pair (%d,%d): %+v", ti, si, res)
			}
		}
	}
}

// TestUpdateCase2 verifies that replacing a tag row kills the row's pairs
// (§3.3 case 2).
func TestUpdateCase2(t *testing.T) {
	m := New(Config{TagEntries: 2, SetEntries: 8}, geo)
	m.Update(addrOf(1, 0, 0), 0, 0)
	m.Update(addrOf(2, 1, 0), 0, 0)
	m.Update(addrOf(2, 2, 0), 0, 0) // row for tag 2 now has two pairs
	// Tag 3 misses, set 1 hits: replaces LRU row (tag 1).
	m.Update(addrOf(3, 1, 0), 0, 1)
	if m.Probe(addrOf(1, 0, 0), 0).Hit {
		t.Fatal("pair of replaced row survived")
	}
	if !m.Probe(addrOf(3, 1, 0), 0).Hit || !m.Probe(addrOf(2, 2, 0), 0).Hit {
		t.Fatal("surviving pairs lost")
	}
}

// TestUpdateCase3 verifies that replacing a set column kills the column's
// pairs (§3.3 case 3).
func TestUpdateCase3(t *testing.T) {
	m := New(Config{TagEntries: 2, SetEntries: 2}, geo)
	m.Update(addrOf(1, 10, 0), 0, 0)
	m.Update(addrOf(2, 11, 0), 0, 0)
	m.Update(addrOf(1, 11, 0), 0, 0) // refresh set 11 and tag 1
	// Set 12 misses, tag 1 hits: replaces LRU set column (10).
	m.Update(addrOf(1, 12, 0), 0, 1)
	if m.Probe(addrOf(1, 10, 0), 0).Hit {
		t.Fatal("pair of replaced column survived")
	}
	if !m.Probe(addrOf(2, 11, 0), 0).Hit {
		t.Fatal("unrelated pair lost")
	}
}

func TestBypassClearModes(t *testing.T) {
	all := New(Config{TagEntries: 2, SetEntries: 4, Consistency: PolicyPaper, Clear: ClearAll}, geo)
	all.Update(addrOf(1, 0, 0), 0, 0)
	all.Update(addrOf(2, 1, 0), 0, 0)
	all.OnBypass()
	if all.ValidPairs() != 0 {
		t.Fatalf("ClearAll left %d pairs", all.ValidPairs())
	}

	row := New(Config{TagEntries: 2, SetEntries: 4, Consistency: PolicyPaper, Clear: ClearLRURow}, geo)
	row.Update(addrOf(1, 0, 0), 0, 0) // tag 1 is LRU after next update
	row.Update(addrOf(2, 1, 0), 0, 0)
	row.OnBypass()
	if row.Probe(addrOf(1, 0, 0), 0).Hit {
		t.Fatal("LRU row survived ClearLRURow")
	}
	if !row.Probe(addrOf(2, 1, 0), 0).Hit {
		t.Fatal("MRU row cleared by ClearLRURow")
	}

	none := New(Config{TagEntries: 2, SetEntries: 4, Clear: ClearNone}, geo)
	none.Update(addrOf(1, 0, 0), 0, 0)
	none.OnBypass()
	if none.ValidPairs() != 1 {
		t.Fatal("ClearNone cleared")
	}
}

func TestOnEviction(t *testing.T) {
	m := New(DefaultD, geo)
	// Install with a negative displacement so the stored key differs from
	// the true tag (tests the cflag adjustment in the reverse match).
	target := addrOf(100, 7, 0)
	base := target + 16 // key base18 = 100, disp = -16 (borrow: carry=1,sign=1 → adj 0)
	m.Update(base, -16, 1)
	if !m.Probe(base, -16).Hit {
		t.Fatal("setup probe failed")
	}
	// Evicting a different tag in the same set must not clear it.
	m.OnEviction(cache.Eviction{Tag: 101, Set: 7, Way: 1})
	if !m.Probe(base, -16).Hit {
		t.Fatal("unrelated eviction cleared pair")
	}
	// Evicting the true line clears it.
	m.OnEviction(cache.Eviction{Tag: 100, Set: 7, Way: 1})
	if m.Probe(base, -16).Hit {
		t.Fatal("pair survived its line's eviction")
	}
}

// TestNegativeDisplacementBorrow exercises the sign/carry corner: base just
// above a 16KB boundary with a negative displacement crossing it.
func TestNegativeDisplacementBorrow(t *testing.T) {
	m := New(DefaultD, geo)
	base := addrOf(100, 0, 8) // low bits small: borrow guaranteed
	disp := int32(-32)
	res := m.Probe(base, disp)
	if !res.InRange || res.PredictedAddr != base-32 {
		t.Fatalf("predicted %#x want %#x", res.PredictedAddr, base-32)
	}
	m.Update(base, disp, 0)
	if !m.Probe(base, disp).Hit {
		t.Fatal("borrow key did not round trip")
	}
}

// TestPaperPolicyViolationScenario reproduces the interleaving described in
// DESIGN.md: with Nt equal to the cache associativity, the paper's pure LRU
// rules let a valid MAB pair outlive its cache line. The sound policy
// (evict-invalidate) keeps the invariant.
func TestPaperPolicyViolationScenario(t *testing.T) {
	run := func(policy Policy) (*DController, int) {
		d := NewDController(geo, Config{TagEntries: 2, SetEntries: 8, Consistency: policy})
		send := func(tag, set uint32) {
			addr := addrOf(tag, set, 0)
			d.OnData(trace.DataEvent{Addr: addr, Base: addr, Disp: 0, Size: 4})
		}
		send(1, 7) // line (1,7) cached; MAB rows {1}
		send(2, 7) // set 7 = {1,2}, line 1 LRU; MAB rows {1,2}
		send(1, 9) // row 1 refreshed (other set); set 7 LRU order unchanged
		send(3, 7) // evicts line (1,7); MAB replaces LRU row 2
		return d, d.MAB.CheckInvariant(d.Cache)
	}
	if _, bad := run(PolicyPaper); bad == 0 {
		t.Fatal("expected an invariant violation under the paper policy")
	}
	d, bad := run(PolicyEvictInvalidate)
	if bad != 0 {
		t.Fatalf("sound policy violated the invariant (%d pairs)", bad)
	}
	// And the stale pair must not produce a wrong-way hit afterwards.
	addr := addrOf(1, 7, 0)
	d.OnData(trace.DataEvent{Addr: addr, Base: addr, Disp: 0, Size: 4})
	if d.Stats.Violations != 0 {
		t.Fatalf("violations under sound policy: %d", d.Stats.Violations)
	}
}

// TestInvariantUnderRandomStream hammers the D controller with random
// accesses and checks MAB ⊆ cache continuously under the sound policy, and
// that the MAB never changes functional cache behaviour (same hits/misses as
// a plain cache).
func TestInvariantUnderRandomStream(t *testing.T) {
	small := cache.Config{Sets: 16, Ways: 2, LineBytes: 32} // high conflict pressure
	d := NewDController(small, Config{TagEntries: 2, SetEntries: 4})
	plain := cache.New(small)
	var plainHits, plainMisses uint64
	r := rand.New(rand.NewSource(11))
	bases := make([]uint32, 8)
	for i := range bases {
		bases[i] = uint32(r.Intn(1<<20) * 4)
	}
	for i := 0; i < 200000; i++ {
		base := bases[r.Intn(len(bases))]
		disp := int32(r.Intn(1<<15) - 1<<14) // mostly in range, some out
		addr := base + uint32(disp)
		ev := trace.DataEvent{Addr: addr, Base: base, Disp: disp, Store: r.Intn(3) == 0, Size: 4}
		d.OnData(ev)
		if way, hit := plain.Lookup(addr); hit {
			plainHits++
			plain.Touch(addr, way)
			if ev.Store {
				plain.MarkDirty(addr, way)
			}
		} else {
			plainMisses++
			plain.Fill(addr)
		}
		if i%1000 == 0 {
			if bad := d.MAB.CheckInvariant(d.Cache); bad != 0 {
				t.Fatalf("invariant violated at access %d: %d pairs", i, bad)
			}
		}
	}
	if d.Stats.Violations != 0 {
		t.Fatalf("way violations: %d", d.Stats.Violations)
	}
	if d.Stats.Hits != plainHits || d.Stats.Misses != plainMisses {
		t.Fatalf("functional divergence: MAB %d/%d vs plain %d/%d",
			d.Stats.Hits, d.Stats.Misses, plainHits, plainMisses)
	}
	if d.Stats.MABHits == 0 {
		t.Fatal("MAB never hit; stream not exercising memoization")
	}
}

// TestPaperPolicyViolationsAreRare runs the same stream under the paper
// policy and checks that violations, while possible, stay rare (the paper's
// argument is sound for the overwhelming majority of interleavings).
func TestPaperPolicyViolationsAreRare(t *testing.T) {
	small := cache.Config{Sets: 16, Ways: 2, LineBytes: 32}
	d := NewDController(small, Config{TagEntries: 2, SetEntries: 4, Consistency: PolicyPaper})
	r := rand.New(rand.NewSource(11))
	bases := make([]uint32, 8)
	for i := range bases {
		bases[i] = uint32(r.Intn(1<<20) * 4)
	}
	const n = 200000
	for i := 0; i < n; i++ {
		base := bases[r.Intn(len(bases))]
		disp := int32(r.Intn(1<<15) - 1<<14)
		d.OnData(trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp, Store: r.Intn(3) == 0, Size: 4})
	}
	if rate := float64(d.Stats.Violations) / float64(n); rate > 0.01 {
		t.Fatalf("violation rate %.4f implausibly high", rate)
	}
}

// TestWideAssociativityWays runs jpeg_enc through a fully associative
// 256-way D-cache: every way number past 127 must survive the round trip
// through the MAB, so the sound policy still admits no violation.
func TestWideAssociativityWays(t *testing.T) {
	d := NewDController(cache.Config{Sets: 1, Ways: 256, LineBytes: 32}, DefaultD)
	if _, err := workloads.Run(workloads.JPEGEnc(), nil, d); err != nil {
		t.Fatal(err)
	}
	if d.Stats.MABHits == 0 {
		t.Fatal("MAB never hit; the stream does not exercise memoization")
	}
	if d.Stats.Violations != 0 {
		t.Fatalf("violations = %d, want 0 under PolicyEvictInvalidate", d.Stats.Violations)
	}
	if bad := d.MAB.CheckInvariant(d.Cache); bad != 0 {
		t.Fatalf("CheckInvariant = %d pairs, want 0", bad)
	}
}
