// Package suite is the experiment-running layer: a registry of cache
// techniques and a parallel, options-based runner that evaluates any set of
// techniques over any set of workloads in one simulator pass per benchmark.
//
// A Technique bundles everything the runner needs to evaluate one cache
// configuration: a typed ID, the cache domain it attaches to (instruction
// fetch or data access), and a factory that, for a given cache geometry,
// produces the controller's event sink, its access counters and its power
// model. The eight standard techniques of the paper's evaluation register
// themselves in the package's default registry (standard.go); adding a new
// configuration to every sweep is a single Register call:
//
//	suite.MustRegister(suite.MABDataTechnique("mab-4x16", "big D-MAB",
//		core.Config{TagEntries: 4, SetEntries: 16}))
//
// Way memoization changes which arrays an access reads, never what the
// cache holds, and so do the set buffer and approach [4]: every technique
// of the standard suite can share one cache per domain. A technique that
// sets Shares is its domain's baseline, one MAB lane or one observer, and
// Attach gives each domain one way-memoized controller
// (core.NewDLanes/NewILanes) for all of them, so a benchmark of the
// standard suite runs two controllers, not eight. Every other technique,
// such as the ablations' one-offs, gets its own cache from New. Either
// way the counters equal those of each technique instantiated alone.
//
// Run executes workloads concurrently (they are independent simulations)
// and returns results in workload order, bit-identical to a sequential run:
//
//	r, err := suite.Run(ctx,
//		suite.WithWorkloads(workloads.DCT(), workloads.FFT()),
//		suite.WithParallelism(4))
//
// Techniques passed to WithTechniques do not have to be registered; ad hoc
// Technique values work the same way, which is how the ablation studies in
// internal/experiments express their one-off configurations.
//
// Two layers render and orchestrate on top of Run: internal/experiments
// knows which technique belongs in which of the paper's figures, and
// internal/explore expands whole axis grids (geometry × MAB size ×
// workload) into memoized sweeps.
package suite

import (
	"fmt"
	"sync"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/power"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// Domain is the cache a technique attaches to.
type Domain uint8

const (
	// Data marks a data-cache technique (a trace.DataSink).
	Data Domain = iota
	// Fetch marks an instruction-cache technique (a trace.FetchSink).
	Fetch
)

// String returns "data" or "fetch".
func (d Domain) String() string {
	switch d {
	case Data:
		return "data"
	case Fetch:
		return "fetch"
	}
	return fmt.Sprintf("domain(%d)", uint8(d))
}

// ID names a technique within its domain. The same ID may exist in both
// domains (e.g. "original" names both the conventional I- and D-cache).
type ID string

// Instance is one instantiated technique attached to one benchmark run:
// the controller as an event sink, its counters, and its power model. The
// sink for the technique's domain must be non-nil.
type Instance struct {
	// Fetch receives instruction-fetch events (Fetch-domain techniques).
	Fetch trace.FetchSink
	// Data receives data-access events (Data-domain techniques).
	Data trace.DataSink
	// Stats is the counter set the controller fills during the run.
	Stats *stats.Counters
	// Model prices the counters (power.Compute) for this technique under
	// the geometry the factory was given.
	Model power.Model
}

// Factory builds a fresh Instance for one benchmark run. The runner calls
// it once per workload, so factories must not share mutable state between
// calls.
type Factory func(geo cache.Config) Instance

// Technique is one registrable cache-access technique.
type Technique struct {
	// ID is the key the results are reported under.
	ID ID
	// Domain selects the event stream the technique consumes.
	Domain Domain
	// Desc is a one-line human-readable description.
	Desc string
	// New instantiates the technique for a geometry.
	New Factory
	// Shares marks a technique that reads one part of its domain's shared
	// way-memoized controller (see Attach). New must still build the same
	// technique alone, priced as Attach prices it. The zero Share attaches
	// the technique alone, over its own cache.
	Shares Share
}

// Part names what a technique reads of its domain's shared controller.
type Part uint8

const (
	// Alone is the zero Part: the technique attaches alone through New.
	Alone Part = iota
	// Baseline is the conventional access, counted beside the lanes.
	Baseline
	// Lane is the lane of Share.MAB.
	Lane
	// SetBuffer is the set buffer of [14], observing the data controller's
	// cache (core.DController.ObserveSetBuffer).
	SetBuffer
	// Approach4 is approach [4], derived from the fetch controller's
	// case-1 counts (core.IController.ObserveApproach4).
	Approach4
)

// Share is what a technique reads of its domain's shared controller: a
// Part, and for a Lane its MAB configuration.
type Share struct {
	Part Part
	MAB  core.Config
}

func (t Technique) validate() error {
	if t.ID == "" {
		return fmt.Errorf("suite: technique with empty ID")
	}
	if t.Domain != Data && t.Domain != Fetch {
		return fmt.Errorf("suite: technique %q: invalid domain %d", t.ID, t.Domain)
	}
	if t.New == nil {
		return fmt.Errorf("suite: technique %s/%q has no factory", t.Domain, t.ID)
	}
	sh := t.Shares
	switch {
	case sh.Part > Approach4:
		return fmt.Errorf("suite: technique %s/%q: invalid part %d", t.Domain, t.ID, sh.Part)
	case sh.Part == SetBuffer && t.Domain != Data, sh.Part == Approach4 && t.Domain != Fetch:
		return fmt.Errorf("suite: technique %s/%q: part %d belongs to the other domain", t.Domain, t.ID, sh.Part)
	case sh.Part != Lane && sh.MAB != (core.Config{}):
		return fmt.Errorf("suite: technique %s/%q: a MAB configuration outside a lane", t.Domain, t.ID)
	case sh.Part == Lane:
		if err := sh.MAB.Validate(); err != nil {
			return fmt.Errorf("suite: technique %s/%q: %w", t.Domain, t.ID, err)
		}
	}
	return nil
}

// Instantiate builds a fresh Instance of t for geo and the sink pair that
// feeds it: Fetch set for a Fetch-domain technique, Data for a Data-domain
// one. A factory that leaves out the counters or its domain's sink is an
// error.
func (t Technique) Instantiate(geo cache.Config) (Instance, trace.SinkPair, error) {
	inst := t.New(geo)
	if inst.Stats == nil {
		return inst, trace.SinkPair{}, fmt.Errorf("suite: technique %s/%q produced no counters", t.Domain, t.ID)
	}
	switch t.Domain {
	case Data:
		if inst.Data == nil {
			return inst, trace.SinkPair{}, fmt.Errorf("suite: technique %s/%q produced no data sink", t.Domain, t.ID)
		}
		return inst, trace.SinkPair{Data: inst.Data}, nil
	case Fetch:
		if inst.Fetch == nil {
			return inst, trace.SinkPair{}, fmt.Errorf("suite: technique %s/%q produced no fetch sink", t.Domain, t.ID)
		}
		return inst, trace.SinkPair{Fetch: inst.Fetch}, nil
	}
	return inst, trace.SinkPair{}, fmt.Errorf("suite: technique %q: invalid domain %d", t.ID, t.Domain)
}

type regKey struct {
	dom Domain
	id  ID
}

// Registry is a set of techniques keyed by (Domain, ID), preserving
// registration order. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.RWMutex
	byKey map[regKey]Technique
	order []regKey
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[regKey]Technique{}}
}

// Register adds a technique. It fails if the technique is malformed or the
// (Domain, ID) pair is already taken.
func (r *Registry) Register(t Technique) error {
	if err := t.validate(); err != nil {
		return err
	}
	k := regKey{t.Domain, t.ID}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[k]; dup {
		return fmt.Errorf("suite: technique %s/%q already registered", t.Domain, t.ID)
	}
	r.byKey[k] = t
	r.order = append(r.order, k)
	return nil
}

// MustRegister is Register, panicking on error.
func (r *Registry) MustRegister(t Technique) {
	if err := r.Register(t); err != nil {
		panic(err)
	}
}

// Lookup finds a technique by domain and ID.
func (r *Registry) Lookup(d Domain, id ID) (Technique, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byKey[regKey{d, id}]
	return t, ok
}

// Techniques returns every registered technique in registration order.
func (r *Registry) Techniques() []Technique {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Technique, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.byKey[k])
	}
	return out
}

// defaultRegistry holds the standard suite (standard.go) plus anything the
// embedding program registers at init time.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the package-level registry used by Run when no
// WithRegistry/WithTechniques option is given.
func DefaultRegistry() *Registry { return defaultRegistry }

// Register adds a technique to the default registry.
func Register(t Technique) error { return defaultRegistry.Register(t) }

// MustRegister is Register on the default registry, panicking on error.
func MustRegister(t Technique) { defaultRegistry.MustRegister(t) }

// Lookup finds a technique in the default registry.
func Lookup(d Domain, id ID) (Technique, bool) { return defaultRegistry.Lookup(d, id) }

// MustLookup is Lookup, panicking when the technique is missing.
func MustLookup(d Domain, id ID) Technique {
	t, ok := Lookup(d, id)
	if !ok {
		panic(fmt.Sprintf("suite: technique %s/%q not registered", d, id))
	}
	return t
}

// Techniques returns every technique in the default registry.
func Techniques() []Technique { return defaultRegistry.Techniques() }
