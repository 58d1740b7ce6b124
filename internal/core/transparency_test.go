package core

import (
	"fmt"
	"math/rand"
	"testing"

	"waymemo/internal/baseline"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// outcome is the part of a technique's counters the transparency claim
// covers: what the cache holds, never which arrays were read.
type outcome struct{ hits, misses, refills, writeBacks uint64 }

func outcomeOf(s *stats.Counters) outcome {
	return outcome{s.Hits, s.Misses, s.Refills, s.WriteBacks}
}

// TestTransparency checks the claim that lets techniques share a cache:
// every technique here changes which arrays an access reads, never what
// the cache holds. Over seeded random geometries and random D and I
// streams (stores, out-of-range displacements, indirect jumps, resets),
// each standalone technique's hits, misses, refills and write-backs equal
// baseline.OriginalD's (OriginalI's) after every block, from the cold
// phase, while ways are still invalid, on. The techniques are the set
// buffer, approach [4], two-phase access, way prediction, MA-links, both
// line buffers and the MAB controllers of a random configuration. The
// filter cache is left out: its L0 absorbs hits, so its L1 sees a
// different stream by design.
func TestTransparency(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 40
	}
	for seed := range seeds {
		r := rand.New(rand.NewSource(int64(seed)))
		lc := randomLaneCase(r)
		geo, cfg := lc.geo, lc.cfgs[0]
		const n = 3000
		what := fmt.Sprintf("seed %d %v %v", seed, geo, cfg)

		type dTech struct {
			name  string
			sink  trace.DataSink
			stats *stats.Counters
		}
		orig := baseline.NewOriginalD(geo)
		sb, tp, lb := baseline.NewSetBufferD(geo), baseline.NewTwoPhaseD(geo), baseline.NewLineBufferD(geo)
		mab, mlb := NewDController(geo, cfg), NewDLineBufferController(geo, cfg)
		ds := []dTech{
			{"set buffer", sb, sb.Stats}, {"two-phase", tp, tp.Stats}, {"line buffer", lb, lb.Stats},
			{"MAB", mab, mab.Stats}, {"MAB + line buffer", mlb, mlb.Stats},
		}
		evs := randomDataStream(r, geo, n)
		for _, cut := range blocks(r, n) {
			blk := evs[cut[0]:cut[1]]
			orig.OnDataBatch(blk)
			for _, d := range ds {
				d.sink.OnDataBatch(blk)
				if got, want := outcomeOf(d.stats), outcomeOf(orig.Stats); got != want {
					t.Fatalf("%s D after event %d: %s %+v, original %+v", what, cut[1], d.name, got, want)
				}
			}
		}

		type iTech struct {
			name  string
			sink  trace.FetchSink
			stats *stats.Counters
		}
		origI := baseline.NewOriginalI(geo)
		a4, wp, ml := baseline.NewApproach4I(geo), baseline.NewWayPredictI(geo), baseline.NewMaLinksI(geo)
		imab := NewIController(geo, cfg)
		is := []iTech{
			{"approach [4]", a4, a4.Stats}, {"way prediction", wp, wp.Stats}, {"MA-links", ml, ml.Stats},
			{"MAB", imab, imab.Stats},
		}
		fetches := randomFetchStream(r, geo, n)
		for _, cut := range blocks(r, n) {
			blk := fetches[cut[0]:cut[1]]
			origI.OnFetchBatch(blk)
			for _, it := range is {
				it.sink.OnFetchBatch(blk)
				if got, want := outcomeOf(it.stats), outcomeOf(origI.Stats); got != want {
					t.Fatalf("%s I after fetch %d: %s %+v, original %+v", what, cut[1], it.name, got, want)
				}
			}
		}
	}
}
