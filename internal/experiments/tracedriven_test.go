package experiments

import (
	"bytes"
	"context"
	"testing"

	"waymemo/internal/core"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// TestTraceDrivenEquivalence captures a benchmark's event streams into a
// trace buffer next to live controllers, spills it to the binary trace
// format, reloads it and replays it into fresh controllers, demanding
// statistics identical to the live run — validating the trace-driven
// evaluation mode end to end.
func TestTraceDrivenEquivalence(t *testing.T) {
	w, err := workloads.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	var capture trace.Buffer
	liveD := core.NewDController(Geometry, core.DefaultD)
	liveI := core.NewIController(Geometry, core.DefaultI)
	if _, err := workloads.Run(w, trace.NewStager([]trace.SinkPair{{Fetch: liveI, Data: liveD}})); err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.Run(w, trace.NewCapture(&capture)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := capture.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("trace size: %d bytes", buf.Len())

	loaded, err := trace.ReadBuffer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayD := core.NewDController(Geometry, core.DefaultD)
	replayI := core.NewIController(Geometry, core.DefaultI)
	if err := loaded.ReplayAll(context.Background(), []trace.SinkPair{{Fetch: replayI, Data: replayD}}); err != nil {
		t.Fatal(err)
	}
	if *replayD.Stats != *liveD.Stats {
		t.Errorf("D stats diverged:\nlive   %+v\nreplay %+v", *liveD.Stats, *replayD.Stats)
	}
	if *replayI.Stats != *liveI.Stats {
		t.Errorf("I stats diverged:\nlive   %+v\nreplay %+v", *liveI.Stats, *replayI.Stats)
	}
}
