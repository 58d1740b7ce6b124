package core

import (
	"fmt"
	"math/rand"
	"testing"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// randomPacketStream draws n fetch packets of 1<<shift bytes, one event
// each, the way a simulator fetches them: mostly fall-through, with
// straight stretches long enough to fill a run, and taken branches, links,
// indirect jumps and resets into a window of four times the cache. A
// branch's base is an instruction of the packet it leaves, and its target
// an instruction of the packet it fetches, so a packet larger than the
// line can make a ways group inexact.
func randomPacketStream(r *rand.Rand, geo cache.Config, shift uint8, n int) []trace.FetchEvent {
	const org = 0x10000
	pb := uint32(1) << shift
	window := 4 * geo.SizeBytes()
	at := func() uint32 { return (org + uint32(r.Intn(window))) &^ (pb - 1) }
	links := make([]uint32, 1+r.Intn(4))
	for i := range links {
		links[i] = at()
	}
	evs := make([]trace.FetchEvent, n)
	pc, straight := uint32(org), 0
	for i := range evs {
		ev := trace.FetchEvent{Addr: pc + pb, Prev: pc, Base: pc, Disp: int32(pb), Shift: shift}
		switch x := r.Intn(100); {
		case straight > 0:
			straight--
		case i == 0 || x == 0:
			ev = trace.FetchEvent{Addr: at(), Disp: int32(pb), First: true, Shift: shift}
		case x < 60:
		case x < 62:
			straight = r.Intn(3 * (trace.MaxRun + 1))
		case x < 82:
			far := 1 << 8
			if r.Intn(4) == 0 {
				far = 1 << 20
			}
			ev.Kind = trace.KindBranch
			ev.Base = pc + uint32(r.Intn(int(pb)))&^3
			target := uint32(int32(ev.Base)+int32(r.Intn(2*far)-far)) &^ 3
			ev.Addr, ev.Disp = target&^(pb-1), int32(target-ev.Base)
		case x < 92:
			ev.Kind = trace.KindLink
			ev.Addr = links[r.Intn(len(links))]
			ev.Base, ev.Disp = ev.Addr, 0
		default:
			ev.Kind = trace.KindIndirect
			ev.Addr = at()
			ev.Base, ev.Disp = ev.Addr, 0
		}
		evs[i] = ev
		pc = ev.Addr
	}
	return evs
}

// joinRuns stages packets as the simulator's front end does: a
// fall-through packet joins the run before it, up to trace.MaxRun of
// them, and heads a run of its own after a full one.
func joinRuns(packets []trace.FetchEvent) []trace.FetchEvent {
	var runs []trace.FetchEvent
	for _, ev := range packets {
		if n := len(runs); n > 0 {
			r := &runs[n-1]
			last, pb := r.LastAddr(), uint32(1)<<r.Shift
			if r.Run < trace.MaxRun && ev == (trace.FetchEvent{Addr: last + pb, Prev: last, Base: last, Disp: int32(pb), Shift: r.Shift}) {
				r.Run++
				continue
			}
		}
		runs = append(runs, ev)
	}
	return runs
}

// namedCounters is one counter set a fetch sink fills.
type namedCounters struct {
	name string
	c    stats.Counters
}

// runSinks is the six fetch sinks over one case: an IController with
// lanes and the approach [4] observer, a ways group, and the four
// ablation baselines.
type runSinks struct {
	ic     *IController
	a4     *stats.Counters
	iw     *IWays
	orig   *baseline.OriginalI
	app4   *baseline.Approach4I
	wp     *baseline.WayPredictI
	ml     *baseline.MaLinksI
	blocks []trace.FetchSink
}

func newRunSinks(lc laneCase, wc waysCase) *runSinks {
	s := &runSinks{
		ic:   NewILanes(lc.geo, lc.cfgs),
		iw:   NewIWays(wc.geos, wc.cfgs),
		orig: baseline.NewOriginalI(lc.geo),
		app4: baseline.NewApproach4I(lc.geo),
		wp:   baseline.NewWayPredictI(lc.geo),
		ml:   baseline.NewMaLinksI(lc.geo),
	}
	s.a4 = s.ic.ObserveApproach4()
	s.blocks = []trace.FetchSink{s.ic, s.iw, s.orig, s.app4, s.wp, s.ml}
	return s
}

// counters lists every counter set the sinks fill: for a ways group,
// every level's.
func (s *runSinks) counters() []namedCounters {
	out := []namedCounters{{"MAB baseline", *s.ic.Baseline}, {"approach [4] observer", *s.a4},
		{"original", *s.orig.Stats}, {"approach [4]", *s.app4.Stats}, {"way prediction", *s.wp.Stats},
		{"MA-links", *s.ml.Stats}}
	for k := range s.ic.Lanes {
		out = append(out, namedCounters{fmt.Sprintf("MAB lane %d", k), *s.ic.Lanes[k].Stats})
	}
	for _, lv := range s.iw.Levels {
		out = append(out, namedCounters{fmt.Sprintf("ways %d baseline", lv.Geometry.Ways), *lv.Baseline})
		for k, c := range lv.Lanes {
			out = append(out, namedCounters{fmt.Sprintf("ways %d lane %d", lv.Geometry.Ways, k), *c})
		}
	}
	return out
}

// TestFetchRunsMatchPackets is the contract of fetch runs: each of the six
// fetch sinks fed a stream of runs counts exactly what the same sink
// counts fed the runs' packets one event each (trace.FetchEvent.Packets),
// after every block. The cases draw random packet sizes from 4 to 128
// bytes and line sizes from 16 to 64, so packets larger than the line,
// which make every packet a line crossing, are among them; random way
// lists for the ways group and random lane lists; and runs cut by random
// block boundaries and split at trace.MaxRun+1 packets. The seeds must
// draw a packet larger than the line, make a ways group inexact and split
// a run.
func TestFetchRunsMatchPackets(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 12
	}
	var wide, splits, inexact int
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		wc := randomWaysCase(r)
		lc := randomLaneCase(r)
		lc.geo = wc.widest()
		shift := uint8(2 + r.Intn(6))
		if 1<<shift > lc.geo.LineBytes {
			wide++
		}
		packets := randomPacketStream(r, lc.geo, shift, 8000)
		runs := joinRuns(packets)
		for i := 1; i < len(runs); i++ {
			if runs[i-1].Run == trace.MaxRun && runs[i].Prev == runs[i-1].LastAddr() && runs[i].Kind == trace.KindSeq {
				splits++
			}
		}
		what := fmt.Sprintf("seed %d: %d-byte packets, %v, ways %v", seed, 1<<shift, lc, wc)
		byRun, byPacket := newRunSinks(lc, wc), newRunSinks(lc, wc)
		p := 0
		for _, cut := range blocks(r, len(runs)) {
			blk := runs[cut[0]:cut[1]]
			n := 0
			for i := range blk {
				n += blk[i].NumPackets()
			}
			for k := range byRun.blocks {
				byRun.blocks[k].OnFetchBatch(blk)
				byPacket.blocks[k].OnFetchBatch(packets[p : p+n])
			}
			p += n
			got, want := byRun.counters(), byPacket.counters()
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s: after run %d (packet %d): %s counters\n runs    %+v\n packets %+v",
						what, cut[1], p, want[k].name, got[k].c, want[k].c)
				}
			}
			if byRun.iw.Exact() != byPacket.iw.Exact() {
				t.Fatalf("%s: after run %d: ways group exact %v fed runs, %v fed packets",
					what, cut[1], byRun.iw.Exact(), byPacket.iw.Exact())
			}
		}
		if !byRun.iw.Exact() {
			inexact++
		}
		if p != len(packets) {
			t.Fatalf("%s: runs hold %d packets, want %d", what, p, len(packets))
		}
	}
	t.Logf("%d seeds with packets larger than the line, %d inexact ways groups, %d split runs", wide, inexact, splits)
	if wide == 0 || inexact == 0 || splits == 0 {
		t.Fatal("the seeds no longer draw a packet larger than the line, an inexact ways group and a split run")
	}
}
