// Package trace defines the instruction-fetch and data-access event streams
// produced by the instruction-set simulator and consumed by the cache
// controllers (the original cache, the baselines, and the Memory Address
// Buffer of the paper).
//
// Every event carries the information the hardware would have at the address
// generation stage: a base value and a signed displacement, not just the
// final address. This is what lets the MAB be probed in parallel with the
// 32-bit adder (paper §3).
//
// A fetch event is a run: a packet and the packets control reached from it
// by straight-line fall-through (FetchEvent.Run). Case 1 of the paper's
// flow taxonomy, an intra-line sequential fetch, needs neither a tag access
// nor a MAB probe, so the stream carries such packets as a count, and a
// controller walks a run a line at a time, not a packet at a time.
//
// Consumers take each stream in blocks: a sink implements its stream's one
// block method (FetchSink, DataSink), and every producer — the simulator's
// Stager, a Buffer's replay, a tee — delivers blocks. A Stager, which a
// replay runs through too, calls each SinkPair's sinks on the pair's own
// goroutine, so the sinks of different pairs run at the same time.
package trace

import (
	"iter"
	"math"
)

// ControlKind describes how control reached the current fetch packet. It maps
// one-to-one onto the three MAB input types of Figure 2 of the paper, plus
// the sequential case and the unpredictable indirect case.
type ControlKind uint8

const (
	// KindSeq is straight-line flow: the previous packet fell through.
	// MAB input: base = previous packet address, disp = packet stride.
	KindSeq ControlKind = iota
	// KindBranch is a taken PC-relative branch or direct jump/call.
	// MAB input: base = branch address, disp = encoded offset.
	KindBranch
	// KindLink is a jump to the link register (function return).
	// MAB input: base = link register value, disp = 0.
	KindLink
	// KindIndirect is a computed jump through a non-link register. The MAB
	// has no base+displacement form for it and is bypassed.
	KindIndirect
)

// String returns the lower-case name of the kind.
func (k ControlKind) String() string {
	switch k {
	case KindSeq:
		return "seq"
	case KindBranch:
		return "branch"
	case KindLink:
		return "link"
	case KindIndirect:
		return "indirect"
	}
	return "unknown"
}

// FetchEvent is a run of instruction-cache accesses: the fetch of one VLIW
// packet, reached as Kind says, and then of the Run packets after it that
// control reached by straight-line fall-through, each at the address of
// the one before plus the packet size. The zero Run is a lone packet. A
// fall-through packet's own event would be the KindSeq event whose base is
// the packet before it and whose disp is the packet size; Packets expands
// a run into those events. A run of more than MaxRun+1 packets is split,
// and the split head is such an event.
//
// The fields are ordered so that the struct packs into 20 bytes.
type FetchEvent struct {
	Addr  uint32      // packet address being fetched (packet aligned)
	Prev  uint32      // previously fetched packet address
	Base  uint32      // MAB base input (see ControlKind)
	Disp  int32       // MAB displacement input
	Kind  ControlKind // how control arrived here
	First bool        // true for the very first fetch after reset
	Run   uint8       // fall-through packets after this one
	Shift uint8       // log2 of the packet size in bytes, the run's stride; below 32
}

// MaxRun is the largest Run a FetchEvent carries: a run holds at most
// MaxRun+1 packets.
const MaxRun = math.MaxUint8

// NumPackets returns the number of packets the event stands for.
func (ev *FetchEvent) NumPackets() int { return 1 + int(ev.Run) }

// LastAddr returns the address of the run's last packet.
func (ev *FetchEvent) LastAddr() uint32 { return ev.Addr + uint32(ev.Run)<<ev.Shift }

// Packets walks the run packet by packet: the event itself with Run 0,
// then each fall-through packet as its own KindSeq event. It is the
// reference form of a run, for consumers that need no faster walk.
func (ev FetchEvent) Packets() iter.Seq[FetchEvent] {
	return func(yield func(FetchEvent) bool) {
		p, stride := ev, uint32(1)<<ev.Shift
		p.Run = 0
		for k := 0; ; k++ {
			if !yield(p) || k == int(ev.Run) {
				return
			}
			p = FetchEvent{Addr: p.Addr + stride, Prev: p.Addr, Base: p.Addr, Disp: int32(stride),
				Kind: KindSeq, Shift: ev.Shift}
		}
	}
}

// DataEvent is one data-cache access issued by a load or store.
type DataEvent struct {
	Addr  uint32 // effective address (Base + Disp)
	Base  uint32 // base register value
	Disp  int32  // sign-extended displacement
	Store bool
	Size  uint8 // access size in bytes (1, 2, 4 or 8)
}

// FetchSink consumes instruction-fetch events one block at a time, in
// stream order. Every producer delivers blocks: a Stager at live time,
// Buffer.ReplayAll at replay time, and FetchTee one event to a block. The
// block belongs to its producer and is reused for the next one, so a sink
// consumes it during the call and never retains it.
type FetchSink interface {
	OnFetchBatch(evs []FetchEvent)
}

// DataSink is FetchSink for the data stream.
type DataSink interface {
	OnDataBatch(evs []DataEvent)
}

// FetchFunc adapts a per-event function to the FetchSink interface.
type FetchFunc func(FetchEvent)

// OnFetch calls f(ev).
func (f FetchFunc) OnFetch(ev FetchEvent) { f(ev) }

// OnFetchBatch calls f on each event of evs, in order.
func (f FetchFunc) OnFetchBatch(evs []FetchEvent) {
	for _, ev := range evs {
		f(ev)
	}
}

// DataFunc adapts a per-event function to the DataSink interface.
type DataFunc func(DataEvent)

// OnData calls f(ev).
func (f DataFunc) OnData(ev DataEvent) { f(ev) }

// OnDataBatch calls f on each event of evs, in order.
func (f DataFunc) OnDataBatch(evs []DataEvent) {
	for _, ev := range evs {
		f(ev)
	}
}

// FetchTee fans one fetch stream out to several sinks, one event at a
// time: each event reaches every sink as a one-event block. The tee reuses
// that block, so it allocates nothing per event and is not safe for
// concurrent use.
func FetchTee(sinks ...FetchSink) FetchFunc {
	var blk [1]FetchEvent
	return func(ev FetchEvent) {
		blk[0] = ev
		for _, s := range sinks {
			s.OnFetchBatch(blk[:])
		}
	}
}

// DataTee is FetchTee for the data stream.
func DataTee(sinks ...DataSink) DataFunc {
	var blk [1]DataEvent
	return func(ev DataEvent) {
		blk[0] = ev
		for _, s := range sinks {
			s.OnDataBatch(blk[:])
		}
	}
}

// FlowCase is the four-way classification of instruction flow from Section 2
// of the paper (Panwar & Rennels' taxonomy).
type FlowCase uint8

const (
	// IntraSeq: same cache line, sequential flow (case 1).
	IntraSeq FlowCase = iota
	// IntraNonSeq: same cache line, taken branch (case 2).
	IntraNonSeq
	// InterSeq: next cache line, sequential flow (case 3).
	InterSeq
	// InterNonSeq: different cache line via taken branch (case 4).
	InterNonSeq
)

// String returns a short name for the flow case.
func (c FlowCase) String() string {
	switch c {
	case IntraSeq:
		return "intra-seq"
	case IntraNonSeq:
		return "intra-nonseq"
	case InterSeq:
		return "inter-seq"
	case InterNonSeq:
		return "inter-nonseq"
	}
	return "unknown"
}

// Classify maps a fetch event onto the paper's four flow cases given the
// cache line size, which must be a power of two (cache.Config validates
// this for every geometry in the system). Indirect jumps classify as
// non-sequential.
func Classify(ev FetchEvent, lineBytes uint32) FlowCase {
	// Every I-cache controller classifies every fetch, so this compiles
	// down to straight-line arithmetic: the same-line test is a mask, not
	// two hardware divisions by the runtime-variable line size, and the
	// case is assembled from the two predicates (inter adds 2, non-seq adds
	// 1 — exactly the FlowCase encoding) instead of a data-dependent branch
	// tree that mispredicts on irregular control flow.
	c := IntraSeq
	if (ev.Addr^ev.Prev)&^(lineBytes-1) != 0 {
		c = InterSeq
	}
	if ev.Kind != KindSeq {
		c++ // IntraSeq→IntraNonSeq, InterSeq→InterNonSeq
	}
	return c
}
