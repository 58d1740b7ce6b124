package core

import (
	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// DLineBufferController is the combination the paper's conclusion names as
// ongoing work: a single line buffer (baseline.LineBuffer) in front of the
// way-memoized D-cache. Accesses that stay within the most recently touched
// line are served from the buffer (no tag, no way, no MAB activity — the
// MAB stays clock-gated); every other access runs on a one-lane laneSet,
// the way-memoized access of DController, and re-latches the buffer.
// Unlike Su & Despain's stand-alone line buffer [13], no extra cycle is
// charged on a buffer miss: the buffer is probed in parallel with the MAB,
// which already produces its answer inside the address-generation cycle.
type DLineBufferController struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters

	ls   laneSet
	buf  baseline.LineBuffer
	ways uint64
}

var _ trace.DataSink = (*DLineBufferController)(nil)

// OnDataBatch processes one block of accesses with direct calls on the
// concrete controller, walking the block by pointer (see
// IController.OnFetchBatch).
func (d *DLineBufferController) OnDataBatch(evs []trace.DataEvent) {
	c, buf, ls := d.Cache, &d.buf, &d.ls
	for i := range evs {
		ev := &evs[i]
		if w, ok := buf.Hit(ev.Addr, ev.Store); ok {
			c.Touch(ev.Addr, w)
			if ev.Store {
				c.MarkDirty(ev.Addr, w)
			}
			continue
		}
		buf.Latch(ev.Addr, ev.Store, ls.access(ev.Addr, ev.Base, ev.Disp, ev.Store, true))
	}
	d.sync()
}

// NewDLineBufferController builds the combined controller.
func NewDLineBufferController(geo cache.Config, mcfg Config) *DLineBufferController {
	d := &DLineBufferController{Stats: &stats.Counters{}, ls: newLaneSet(geo, []Config{mcfg}),
		buf: baseline.NewLineBuffer(geo), ways: uint64(geo.Ways)}
	d.Cache, d.MAB = d.ls.cache, d.ls.lanes[0].mab
	return d
}

// sync derives Stats: the lane's counts over the accesses the buffer
// missed, then the buffer's.
func (d *DLineBufferController) sync() {
	d.ls.fold()
	d.ls.n.dataLane(d.Stats, d.ways, d.ls.lanes[0].laneCounts)
	d.buf.Counts(d.Stats)
}
