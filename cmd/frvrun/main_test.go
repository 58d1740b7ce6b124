package main

import (
	"testing"

	"waymemo/internal/core"
)

// TestParseMAB: a well-formed flag parses to its configuration, and every
// malformed or unbuildable one is an error, never a configuration that
// panics the controllers.
func TestParseMAB(t *testing.T) {
	for _, c := range []struct {
		in   string
		want core.Config
		ok   bool
	}{
		{"2x8", core.Config{TagEntries: 2, SetEntries: 8}, true},
		{"4X64", core.Config{TagEntries: 4, SetEntries: 64}, true},
		{"1x4096", core.Config{TagEntries: 1, SetEntries: 4096}, true},
		{"0x8", core.Config{}, false},
		{"2x0", core.Config{}, false},
		{"-1x8", core.Config{}, false},
		{"5000x5000", core.Config{}, false},
		{"2x8junk", core.Config{}, false},
		{"2x8x4", core.Config{}, false},
		{"2 x8", core.Config{}, false},
		{"2x", core.Config{}, false},
		{"x8", core.Config{}, false},
		{"28", core.Config{}, false},
		{"", core.Config{}, false},
	} {
		got, err := parseMAB(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseMAB(%q): err = %v, want ok %v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseMAB(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}
