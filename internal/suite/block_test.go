package suite

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// everyController is the eight standard techniques plus one technique per
// controller type that only the ablation studies attach, so each of the
// twelve controller types appears at least once.
func everyController() []Technique {
	extra := []struct {
		id  ID
		dom Domain
		new func(cache.Config) (trace.FetchSink, trace.DataSink, *stats.Counters)
	}{
		{"two-phase", Data, func(g cache.Config) (trace.FetchSink, trace.DataSink, *stats.Counters) {
			c := baseline.NewTwoPhaseD(g)
			return nil, c, c.Stats
		}},
		{"line-buffer", Data, func(g cache.Config) (trace.FetchSink, trace.DataSink, *stats.Counters) {
			c := baseline.NewLineBufferD(g)
			return nil, c, c.Stats
		}},
		{"filter-cache", Data, func(g cache.Config) (trace.FetchSink, trace.DataSink, *stats.Counters) {
			c := baseline.NewFilterCacheD(cache.Config{Sets: 8, Ways: 1, LineBytes: 32}, g)
			return nil, c, c.Stats
		}},
		{"mab-2x8+linebuf", Data, func(g cache.Config) (trace.FetchSink, trace.DataSink, *stats.Counters) {
			c := core.NewDLineBufferController(g, core.DefaultD)
			return nil, c, c.Stats
		}},
		{"way-predict", Fetch, func(g cache.Config) (trace.FetchSink, trace.DataSink, *stats.Counters) {
			c := baseline.NewWayPredictI(g)
			return c, nil, c.Stats
		}},
		{"ma-links", Fetch, func(g cache.Config) (trace.FetchSink, trace.DataSink, *stats.Counters) {
			c := baseline.NewMaLinksI(g)
			return c, nil, c.Stats
		}},
	}
	techs := Techniques()
	for _, e := range extra {
		techs = append(techs, Technique{ID: e.id, Domain: e.dom, New: func(g cache.Config) Instance {
			f, d, s := e.new(g)
			return Instance{Fetch: f, Data: d, Stats: s, Model: ArrayModel(g)}
		}})
	}
	return techs
}

// instantiateAll builds a fresh instance of every technique at the paper's
// geometry and returns their counters and sink pairs.
func instantiateAll(t *testing.T, techs []Technique) ([]*stats.Counters, []trace.SinkPair) {
	t.Helper()
	counters := make([]*stats.Counters, len(techs))
	pairs := make([]trace.SinkPair, len(techs))
	for i, tech := range techs {
		inst, pair, err := tech.Instantiate(cache.FRV32K)
		if err != nil {
			t.Fatal(err)
		}
		counters[i], pairs[i] = inst.Stats, pair
	}
	return counters, pairs
}

// TestLiveBlocksMatchReplayAndPerEvent is the contract of live block
// delivery: for every controller type, Drive's live run (events staged
// into blocks), Drive's replay of a capture, Drive's first pass on a cold
// trace cache (fed by the capturing execution), and a run whose stager feeds
// the tees, so every controller sees each event as a one-event block —
// the reference — leave bit-identical counters and the same cycle and
// instruction counts. The synthetic
// specs put each stream just below, exactly at, and one event past a
// multiple of 4096 events, which is a block boundary of both the live
// stager and replay, so the full-block path, the tail flush and the empty
// tail are all exercised. A fetch event is a run of packets, so the last
// three specs, picked by their run counts, put the fetch stream at those
// boundaries; the three before them did so when a fetch event was a
// packet.
func TestLiveBlocksMatchReplayAndPerEvent(t *testing.T) {
	cases := []struct {
		spec           string
		fetches, datas int // -1: not pinned
	}{
		{"DCT", -1, -1},
		{"synth:stream,fp=1KiB,n=7934", 16095, 8191},
		{"synth:stream,fp=1KiB,n=7935", 16097, 8192},
		{"synth:stream,fp=1KiB,n=7936", 16098, 8193},
		{"synth:stream,fp=4KiB,n=1227", 3478, 2252},
		{"synth:stream,fp=1KiB,n=2968", 6182, 3225},
		{"synth:stream,fp=1KiB,n=2149", 4547, 2406},
		{"synth:pchase,fp=1KiB,n=4093", 4095, 4094},
		{"synth:stream,fp=1KiB,n=1923", 4096, 2180},
		{"synth:pchase,fp=1KiB,n=4095", 4097, 4096},
	}
	ctx := context.Background()
	techs := everyController()
	tc := NewTraceCache()
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			w, err := workloads.ByName(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			capt, err := tc.Capture(ctx, w, 0)
			if err != nil {
				t.Fatal(err)
			}
			if c.fetches >= 0 && (capt.Buf.NumFetches() != c.fetches || capt.Buf.NumDatas() != c.datas) {
				t.Fatalf("streams hold %d fetches and %d data events, want %d and %d",
					capt.Buf.NumFetches(), capt.Buf.NumDatas(), c.fetches, c.datas)
			}

			ref, refPairs := instantiateAll(t, techs)
			var fs []trace.FetchSink
			var ds []trace.DataSink
			for _, p := range refPairs {
				if p.Fetch != nil {
					fs = append(fs, p.Fetch)
				}
				if p.Data != nil {
					ds = append(ds, p.Data)
				}
			}
			perEvent := trace.NewStager([]trace.SinkPair{{Fetch: trace.FetchTee(fs...), Data: trace.DataTee(ds...)}})
			cpu, err := workloads.RunPacketContext(ctx, w, perEvent, 0)
			if err != nil {
				t.Fatal(err)
			}

			for _, run := range []struct {
				name string
				tc   *TraceCache
			}{{"live", nil}, {"replay", tc}, {"first pass", NewTraceCache()}} {
				got, pairs := instantiateAll(t, techs)
				cycles, instrs, err := Drive(ctx, w, 0, pairs, run.tc, 1)
				if err != nil {
					t.Fatal(err)
				}
				if cycles != cpu.Cycles || instrs != cpu.Instrs {
					t.Errorf("%s: cycles/instrs %d/%d, per-event reference %d/%d",
						run.name, cycles, instrs, cpu.Cycles, cpu.Instrs)
				}
				for i, tech := range techs {
					if *got[i] != *ref[i] {
						t.Errorf("%s: %s/%s counters diverge:\ngot: %+v\nref: %+v",
							run.name, tech.Domain, tech.ID, *got[i], *ref[i])
					}
				}
			}
		})
	}
}

// TestDriveCancelled: a cancelled context makes Drive return ctx.Err(),
// live and replayed; a context cancelled before the call delivers nothing.
func TestDriveCancelled(t *testing.T) {
	w, err := workloads.ByName("synth:stream,fp=1KiB,n=7935")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []*TraceCache{nil, NewTraceCache()} {
		got, pairs := instantiateAll(t, everyController())
		if _, _, err := Drive(ctx, w, 0, pairs, tc, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("trace cache %v: err = %v, want context.Canceled", tc != nil, err)
		}
		for _, s := range got {
			if *s != (stats.Counters{}) {
				t.Fatalf("trace cache %v: a pre-cancelled Drive delivered events: %+v", tc != nil, *s)
			}
		}
	}

	// Cancelled mid-run, the live path stops the simulator promptly.
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	_, pairs := instantiateAll(t, everyController())
	if _, _, err := Drive(ctx, spin, 0, pairs, nil, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cutBlocks cuts a stream of n events into seeded random blocks: a
// quarter of them one event long, a quarter short, the rest up to three
// thousand events.
func cutBlocks(r *rand.Rand, n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; {
		m := 1
		switch r.Intn(4) {
		case 0:
		case 1:
			m = 2 + r.Intn(16)
		default:
			m = 1 + r.Intn(3000)
		}
		hi := min(n, lo+m)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// TestCountsIndependentOfBlockCuts: a controller's counters depend on its
// stream, never on where the stream is cut into blocks. Each of the
// fourteen controller types — the twelve of everyController, the shared
// controllers of Attach with their observers, and both ways groups — is
// fed a paper capture in seeded random cuts, one-event blocks included,
// and must count exactly what one whole-stream block counts. This guards
// the state a controller carries across block edges: the previous fetch's
// way, per-block counter syncs, way predictions and links.
func TestCountsIndependentOfBlockCuts(t *testing.T) {
	w := workloads.DCT()
	capt, err := NewTraceCache().Capture(context.Background(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs, ds := capt.Buf.Fetches(), capt.Buf.Datas()
	var geos []cache.Config
	for _, ways := range []int{1, 2, 4} {
		g := cache.FRV32K
		g.Ways = ways
		geos = append(geos, g)
	}
	var cfgs []core.Config
	for _, c := range []core.Config{{TagEntries: 2, SetEntries: 8}, {TagEntries: 2, SetEntries: 16}, {TagEntries: 4, SetEntries: 4}} {
		c.Consistency = core.PolicyEvictInvalidate
		cfgs = append(cfgs, c)
	}

	// run delivers both streams, cut by cut, to a fresh instance of every
	// controller and returns all their counters, in a fixed order.
	run := func(fcuts, dcuts [][2]int) []stats.Counters {
		counters, pairs := instantiateAll(t, everyController())
		shared, res, err := Attach(cache.FRV32K, Techniques())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			counters = append(counters, r.Stats)
		}
		dw, iw := core.NewDWays(geos, cfgs), core.NewIWays(geos, cfgs)
		for _, lv := range append(append([]core.WayLevel{}, dw.Levels...), iw.Levels...) {
			counters = append(append(counters, lv.Baseline), lv.Lanes...)
		}
		pairs = append(append(pairs, shared...), trace.SinkPair{Data: dw}, trace.SinkPair{Fetch: iw})
		for _, p := range pairs {
			if p.Fetch != nil {
				for _, c := range fcuts {
					p.Fetch.OnFetchBatch(fs[c[0]:c[1]])
				}
			}
			if p.Data != nil {
				for _, c := range dcuts {
					p.Data.OnDataBatch(ds[c[0]:c[1]])
				}
			}
		}
		out := make([]stats.Counters, len(counters))
		for i, c := range counters {
			out[i] = *c
		}
		return out
	}

	whole := run([][2]int{{0, len(fs)}}, [][2]int{{0, len(ds)}})
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		got := run(cutBlocks(r, len(fs)), cutBlocks(r, len(ds)))
		for i := range whole {
			if got[i] != whole[i] {
				t.Fatalf("seed %d: counters %d diverge from one whole-stream block:\ncut:   %+v\nwhole: %+v",
					seed, i, got[i], whole[i])
			}
		}
	}
}
