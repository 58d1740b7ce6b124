package core

import (
	"testing"

	"waymemo/internal/trace"
)

// onData and onFetch deliver one event to s as a block of one.
func onData(s trace.DataSink, ev trace.DataEvent)    { s.OnDataBatch([]trace.DataEvent{ev}) }
func onFetch(s trace.FetchSink, ev trace.FetchEvent) { s.OnFetchBatch([]trace.FetchEvent{ev}) }

// fetchSeq sends a straight-line run of packet fetches starting at addr.
func fetchSeq(ic *IController, start uint32, packets int, first bool) {
	prev := start - 8
	for i := 0; i < packets; i++ {
		addr := start + uint32(8*i)
		ev := trace.FetchEvent{Addr: addr, Prev: prev, Kind: trace.KindSeq, Base: prev, Disp: 8}
		if first && i == 0 {
			ev.First = true
		}
		onFetch(ic, ev)
		prev = addr
	}
}

func TestICase1SkipsTagAccess(t *testing.T) {
	ic := NewIController(geo, DefaultI)
	// 4 packets: 0x10000,8,10,18 — packets 2 and 4 are intra-line
	// sequential (32-byte lines hold 4 packets).
	fetchSeq(ic, 0x10000, 4, true)
	s := ic.Stats
	// First fetch: bypass (cold). Packet 0x10008: intra-line seq → skip.
	// 0x10010, 0x10018: also intra-line.
	if s.Case1Skips != 3 {
		t.Fatalf("case1 skips = %d, want 3", s.Case1Skips)
	}
	// Only the first fetch did a full access: 2 tags + 2 ways + refill.
	if s.TagReads != 2 {
		t.Fatalf("tag reads = %d, want 2", s.TagReads)
	}
	if s.WayReads != 2+3 {
		t.Fatalf("way reads = %d, want 5", s.WayReads)
	}
}

func TestIInterLineSequentialUsesMAB(t *testing.T) {
	ic := NewIController(geo, DefaultI)
	// Two full lines of straight-line code, executed twice (loop-like
	// replay): second pass inter-line crossings hit the MAB.
	fetchSeq(ic, 0x10000, 8, true)
	// Jump back to start (branch) and rerun.
	onFetch(ic, trace.FetchEvent{Addr: 0x10000, Prev: 0x10038, Kind: trace.KindBranch, Base: 0x1003c, Disp: -0x3c})
	fetchSeq(ic, 0x10008, 7, false)
	s := ic.Stats
	if s.MABHits == 0 {
		t.Fatalf("no MAB hits on replay: %+v", s)
	}
	// Line-crossing fetches in pass 2 (0x10020 crossing) must hit the MAB:
	// pass 1 installed (PC, +8) keys for each crossing.
	if s.Violations != 0 {
		t.Fatalf("violations: %d", s.Violations)
	}
	if bad := ic.Lanes[0].CheckInvariant(ic.Cache); bad != 0 {
		t.Fatalf("invariant: %d", bad)
	}
}

func TestILinkAndBranchKinds(t *testing.T) {
	ic := NewIController(geo, DefaultI)
	call := trace.FetchEvent{Addr: 0x20000, Prev: 0x10000, Kind: trace.KindBranch, Base: 0x10004, Disp: 0x20000 + 0 - 0x10004}
	// Too-large displacement: bypassed.
	onFetch(ic, trace.FetchEvent{Addr: 0x10000, Prev: 0, Kind: trace.KindSeq, Base: 0, Disp: 8, First: true})
	onFetch(ic, call)
	if ic.Stats.MABBypasses != 2 { // first fetch + far call
		t.Fatalf("bypasses = %d", ic.Stats.MABBypasses)
	}
	// Return via link register: disp 0, always in MAB range.
	ret := trace.FetchEvent{Addr: 0x10008, Prev: 0x20000, Kind: trace.KindLink, Base: 0x10008, Disp: 0}
	onFetch(ic, ret)
	if ic.Stats.MABLookups != 1 || ic.Stats.MABMisses != 1 {
		t.Fatalf("link lookup not routed through MAB: %+v", ic.Stats)
	}
	// Same call/return again: the return now hits.
	onFetch(ic, trace.FetchEvent{Addr: 0x20000, Prev: 0x10008, Kind: trace.KindBranch, Base: 0x1000c, Disp: 0x20000 - 0x1000c})
	onFetch(ic, ret)
	if ic.Stats.MABHits != 1 {
		t.Fatalf("repeat link did not hit: %+v", ic.Stats)
	}
}

func TestIIndirectBypasses(t *testing.T) {
	ic := NewIController(geo, DefaultI)
	onFetch(ic, trace.FetchEvent{Addr: 0x10000, Prev: 0, Kind: trace.KindSeq, Base: 0, Disp: 8, First: true})
	onFetch(ic, trace.FetchEvent{Addr: 0x30000, Prev: 0x10000, Kind: trace.KindIndirect, Base: 0x30000, Disp: 0})
	if ic.Stats.MABLookups != 0 {
		t.Fatalf("indirect jump consulted the MAB")
	}
	if ic.Stats.MABBypasses != 2 {
		t.Fatalf("bypasses = %d", ic.Stats.MABBypasses)
	}
}

func TestILoopTagEliminationRate(t *testing.T) {
	// A loop over 4 lines repeated many times: after warm-up, every fetch
	// is either case-1 or a MAB hit — tag accesses go to ~zero, way
	// accesses to ~1 per fetch.
	ic := NewIController(geo, DefaultI)
	const iters = 200
	prev := uint32(0x10000 - 8)
	first := true
	for it := 0; it < iters; it++ {
		for p := 0; p < 16; p++ { // 16 packets = 4 lines
			addr := uint32(0x10000 + 8*p)
			kind, base, disp := trace.KindSeq, prev, int32(8)
			if p == 0 && !first {
				kind, base, disp = trace.KindBranch, prev+4, int32(0x10000)-int32(prev+4)
			}
			onFetch(ic, trace.FetchEvent{Addr: addr, Prev: prev, Kind: kind, Base: base, Disp: disp, First: first})
			first = false
			prev = addr
		}
	}
	s := ic.Stats
	tagsPer := s.TagsPerAccess()
	waysPer := s.WaysPerAccess()
	if tagsPer > 0.05 {
		t.Fatalf("steady-state loop: tags/access = %.3f", tagsPer)
	}
	if waysPer < 1.0 || waysPer > 1.1 {
		t.Fatalf("ways/access = %.3f", waysPer)
	}
	if got := s.Flow[trace.IntraSeq]; got == 0 {
		t.Fatal("no intra-seq flow recorded")
	}
}
