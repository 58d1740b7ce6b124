package serve

import (
	"encoding/json"
	"testing"

	"waymemo/internal/core"
)

// FuzzSweepRequest drives arbitrary JSON through the HTTP boundary's
// request resolution, SweepRequest.Space. It must never panic, and every
// space it accepts must be one the engine can run: no duplicate value on
// any axis and, at every geometry, controller state within
// core.MaxStateBytes per grid point.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"domain":"fetch","sets":[256,1024],"ways":[2],"mab_tags":[2],"mab_sets":[8,16,32]}`,
		`{"sets":[128,512,1024],"ways":[1,2,4],"line_bytes":[32],"mab_tags":[2],"mab_sets":[4,8,16,32]}`,
		`{"workloads":["DCT","synth:pchase,fp=4KiB..16KiB"],"packet_bytes":4}`,
		`{"sets":[1048576],"ways":[1],"line_bytes":[1],"mab_tags":[1,2,3,4],"mab_sets":[1,2,3,4,5,6,7,8]}`,
		`{"sets":[1024],"ways":[1024],"mab_tags":[4],"mab_sets":[1024]}`,
		`{"mab_tags":[2,2]}`,
		`{"sets":[0],"ways":[-1],"line_bytes":[3]}`,
		`{"domain":"x"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		sp, err := req.Space()
		if err != nil {
			return
		}
		mabs := sp.MABs()
		for _, geo := range sp.Geometries() {
			if b := core.StateBytes(geo, mabs); b > core.MaxStateBytes {
				t.Fatalf("accepted %+v with %d MAB sizes: %d bytes per point, over %d", geo, len(mabs), b, core.MaxStateBytes)
			}
		}
		for name, axis := range map[string][]int{
			"sets": sp.Sets, "ways": sp.Ways, "line": sp.LineBytes,
			"mab-tags": sp.TagEntries, "mab-sets": sp.SetEntries,
		} {
			seen := map[int]bool{}
			for _, v := range axis {
				if seen[v] {
					t.Fatalf("accepted duplicate %s value %d", name, v)
				}
				seen[v] = true
			}
		}
		names := map[string]bool{}
		for _, w := range sp.Workloads {
			if names[w.Name] {
				t.Fatalf("accepted duplicate workload %q", w.Name)
			}
			names[w.Name] = true
		}
	})
}
