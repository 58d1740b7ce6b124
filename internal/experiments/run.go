// Package experiments regenerates every table and figure of the paper's
// evaluation section. The execution machinery lives in internal/suite (a
// technique registry plus a parallel runner); this package is the rendering
// layer that knows which technique goes in which figure, plus the ablation
// studies beyond the published results.
package experiments

import (
	"waymemo/internal/cache"
	"waymemo/internal/suite"
)

// Technique keys of the standard suite, re-exported from internal/suite for
// the rendering lists below.
const (
	DOrig   = suite.DOrig
	DSetBuf = suite.DSetBuf
	DMAB    = suite.DMAB

	IOrig  = suite.IOrig
	IA4    = suite.IA4
	IMAB8  = suite.IMAB8
	IMAB16 = suite.IMAB16
	IMAB32 = suite.IMAB32
)

// DTechs and ITechs list the technique keys in figure order. This is the
// rendering list: a newly registered technique shows up in the figures by
// adding its key here — no runner or figure-code changes.
var (
	DTechs = []suite.ID{DOrig, DSetBuf, DMAB}
	ITechs = []suite.ID{IA4, IMAB8, IMAB16, IMAB32}
)

// Geometry is the cache configuration of the paper (32KB, 2-way, 512 sets,
// 32-byte lines, for both I and D).
var Geometry = cache.FRV32K

// Results and BenchResult alias the suite types so existing figure callers
// keep compiling.
type (
	Results     = suite.Results
	BenchResult = suite.BenchResult
)
