package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"waymemo/internal/cache"
	"waymemo/internal/explore"
	"waymemo/internal/power"
	"waymemo/internal/serve"
	"waymemo/internal/serve/client"
	"waymemo/internal/stats"
	"waymemo/internal/suite"
	"waymemo/internal/synth"
	"waymemo/internal/workloads"
)

// config sizes the workloads. activeConfig is the benchmark; the tests
// substitute tiny sizes.
type config struct {
	// tag distinguishes golden digests of other sizes ("" for the
	// benchmark's own).
	tag string
	// paper is the benchmark set of paper-live, geo-sweep and serve-mix, and
	// paperRV32 its RV32 ports (timed by the layer pass only).
	paper, paperRV32 func() []workloads.Workload
	// geoD and geoI are geo-sweep's axes; Workloads is filled from paper.
	geoD, geoI explore.Space
	// serveSweeps is how many distinct sweeps serve-mix's clients work
	// through in a repeat.
	serveSweeps int
	// synthAccesses and synthFootprints (KiB) size synth-capture's specs.
	synthAccesses   int
	synthFootprints []int
	// minRepeats is the fewest timed repeats a run makes.
	minRepeats int
}

var activeConfig = config{
	paper:     workloads.All,
	paperRV32: workloads.RV32All,
	geoD: explore.Space{Domain: suite.Data,
		Sets: []int{128, 512, 1024}, Ways: []int{1, 2, 4}, LineBytes: []int{32},
		TagEntries: []int{2}, SetEntries: []int{4, 8, 16, 32}},
	geoI: explore.Space{Domain: suite.Fetch,
		Sets: []int{256, 1024}, Ways: []int{2}, LineBytes: []int{32},
		TagEntries: []int{2}, SetEntries: []int{8, 16, 32}},
	serveSweeps:     150,
	synthAccesses:   1 << 18,
	synthFootprints: []int{1, 8, 64, 256},
	minRepeats:      3,
}

// env is one child process's context.
type env struct {
	seed int64
	par  int
	dir  string // scratch directory, removed when the child exits
	cfg  config
}

// repeat is one timed pass of a workload.
type repeat struct {
	points int
	wall   time.Duration
	lat    []float64 // per-request latencies, ms
}

// runner is a set-up workload.
type runner interface {
	// run executes repeat number i, counted from 1, at the given
	// parallelism.
	run(ctx context.Context, par, i int) (repeat, error)
	// check verifies the last repeat's outputs, untimed, and returns how
	// many of its points failed.
	check(ctx context.Context) int
	// predict prices the last repeat from per-layer unit costs and the
	// repeat's own counts: the ledger behind unattributed_frac.
	predict(c *costs) time.Duration
	// pointsPerPass is how many points one simulator or replay pass served
	// in the last repeat.
	pointsPerPass() float64
	// inputs are the workload's own inputs for the layer pass.
	inputs() layerInputs
	close()
}

// layerInputs are the programs and grid points the layer pass feeds each
// layer.
type layerInputs struct {
	frvl, rv32 []workloads.Workload
	names      []string
	space      explore.Space // normalized
	// sweeps probe the daemon: cold, resubmitted, then all store hits.
	sweeps []serve.SweepRequest
}

type bench struct {
	name, why string
	setup     func(ctx context.Context, e *env) (runner, error)
}

// benches are the workloads in run order. The why strings are repeated in
// BENCHMARK.json.
var benches = []bench{
	{"paper-live", "figure regeneration: the simulator and live per-event delivery do the work; replay, explore and serve sit idle", setupPaperLive},
	{"geo-sweep", "cold multi-geometry explore sweeps: batched decode, fan-out and the controllers dominate", setupGeoSweep},
	{"serve-mix", "150 daemon sweeps over 7 benchmarks and 4 MAB lists from closed-loop HTTP clients, over half of the points stored: store I/O, journal fsync, SSE, a decode per simulation", setupServeMix},
	{"synth-capture", "48 seeded synthetic specs, 6 patterns x 2 ISAs x 4 footprints, 2^18 accesses: every point captures, encodes and spills its trace and fsyncs its result", setupSynthCapture},
}

func workloadNames() []string {
	var out []string
	for _, b := range benches {
		out = append(out, b.name)
	}
	return out
}

func lookup(name string) *bench {
	for i := range benches {
		if benches[i].name == name {
			return &benches[i]
		}
	}
	return nil
}

// ---- correctness ----

//go:embed testdata/golden.json
var goldenJSON []byte

// goldens maps a workload (plus size tag and, for seeded outputs, the seed)
// to the SHA-256 of its results.
var goldens = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("bench: testdata/golden.json: %v", err))
	}
	return m
}()

func digest(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// goldenOK compares a digest with its golden. Outputs without a golden (an
// unpinned seed or size) pass, and the digest is printed so it can be
// pinned.
func goldenOK(key, got string) bool {
	want, ok := goldens[key]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: no golden for %s; digest %s\n", key, got)
		return true
	}
	if want != got {
		fmt.Fprintf(os.Stderr, "bench: %s: digest %s, golden %s\n", key, got, want)
		return false
	}
	return true
}

// countersAgree is the paper's invariant: memoization changes which arrays
// are read, never the hit/miss behaviour, and a memoized way is never
// stale.
func countersAgree(base, s *stats.Counters) bool {
	return s.Hits == base.Hits && s.Misses == base.Misses && s.Violations == 0
}

// pointOK checks one grid point: every technique agrees with the baseline
// (Techs[0]).
func pointOK(pr *explore.PointResult) bool {
	if len(pr.Techs) == 0 || pr.Cycles == 0 {
		return false
	}
	for i := range pr.Techs {
		if !countersAgree(&pr.Techs[0].Stats, &pr.Techs[i].Stats) {
			return false
		}
	}
	return true
}

// latencies records the latency of every request of one batch call
// (suite.Run, explore.Run): from the progress event that starts it to the
// one that reports it done. The call queues every request at once, so
// timing from the call's start would measure the queue order instead: the
// engines start the requests in a fixed order, and a quantile of the
// finishing times jumps with which of two workers picked up which request.
type latencies struct {
	t0    time.Time
	start map[int]time.Time
	ms    []float64
}

func newLatencies() *latencies { return &latencies{t0: time.Now(), start: map[int]time.Time{}} }

// event records request i starting or finishing; the engines serialize
// their progress callbacks.
func (l *latencies) event(i int, done bool) {
	if !done {
		l.start[i] = time.Now()
		return
	}
	l.ms = append(l.ms, float64(time.Since(l.start[i]))/1e6)
}

// progress is event as an explore.WithProgress callback.
func (l *latencies) progress(p explore.Progress) { l.event(p.Index, p.Done) }

func buildAll(ws []workloads.Workload) error {
	for _, w := range ws {
		if _, err := w.Build(); err != nil {
			return err
		}
	}
	return nil
}

func names(ws []workloads.Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// paperInputs are the layer-pass inputs of the workloads built on the paper
// benchmarks.
func paperInputs(e *env, space explore.Space) layerInputs {
	ws := e.cfg.paper()
	return layerInputs{frvl: ws, rv32: e.cfg.paperRV32(), names: names(ws), space: space,
		sweeps: pointSweeps(names(ws), 4, 8, 16, 32)}
}

// pointSweeps is one single-point sweep per workload at 32KB 2-way with the
// given MAB set entries (2 tag entries).
func pointSweeps(ws []string, mabSets ...int) []serve.SweepRequest {
	g := cache.FRV32K
	var out []serve.SweepRequest
	for _, w := range ws {
		out = append(out, serve.SweepRequest{Domain: "data", Sets: []int{g.Sets}, Ways: []int{g.Ways},
			LineBytes: []int{g.LineBytes}, TagEntries: []int{2}, SetEntries: mabSets, Workloads: []string{w}})
	}
	return out
}

// ---- paper-live ----

// paperLive regenerates the paper's Figures 4-8: one live suite.Run over the
// seven benchmarks with the eight registered techniques at 32KB 2-way. A
// request is one benchmark.
type paperLive struct {
	e   *env
	ws  []workloads.Workload
	res *suite.Results
}

func setupPaperLive(_ context.Context, e *env) (runner, error) {
	ws := e.cfg.paper()
	return &paperLive{e: e, ws: ws}, buildAll(ws)
}

func (p *paperLive) run(ctx context.Context, par, _ int) (repeat, error) {
	lat := newLatencies()
	res, err := suite.Run(ctx, suite.WithWorkloads(p.ws...), suite.WithParallelism(par),
		suite.WithProgress(func(pr suite.Progress) { lat.event(pr.Index, pr.Done) }))
	wall := time.Since(lat.t0)
	if err != nil {
		return repeat{}, err
	}
	p.res = res
	return repeat{points: len(res.Benchmarks), wall: wall, lat: lat.ms}, nil
}

type techDigest struct {
	Stats stats.Counters
	Power power.Breakdown
}

type benchDigest struct {
	Name           string
	Cycles, Instrs uint64
	D, I           map[suite.ID]techDigest
}

func (p *paperLive) check(context.Context) int {
	failed := 0
	var ds []benchDigest
	for _, b := range p.res.Benchmarks {
		d := benchDigest{Name: b.Name, Cycles: b.Cycles, Instrs: b.Instrs,
			D: map[suite.ID]techDigest{}, I: map[suite.ID]techDigest{}}
		ok := b.D[suite.DOrig].Stats != nil && b.I[suite.IOrig].Stats != nil
		for id, tr := range b.D {
			ok = ok && countersAgree(b.D[suite.DOrig].Stats, tr.Stats)
			d.D[id] = techDigest{*tr.Stats, b.DPower(id)}
		}
		for id, tr := range b.I {
			ok = ok && countersAgree(b.I[suite.IOrig].Stats, tr.Stats)
			d.I[id] = techDigest{*tr.Stats, b.IPower(id)}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: paper-live: %s: techniques disagree with the baseline\n", b.Name)
			failed++
		}
		ds = append(ds, d)
	}
	if !goldenOK("paper-live"+p.e.cfg.tag, digest(ds)) {
		failed = len(p.res.Benchmarks)
	}
	return failed
}

func (p *paperLive) predict(c *costs) time.Duration {
	var ns float64
	techs := len(suite.Techniques())
	for _, b := range p.res.Benchmarks {
		f, d := c.events[b.Name][0], c.events[b.Name][1]
		ns += float64(b.Instrs)*c.simNs[""] + c.checkNs[b.Name] + float64(f+d)*c.tee8 + float64(techs)*c.power
	}
	return time.Duration(ns)
}

func (p *paperLive) inputs() layerInputs {
	sp, _ := explore.Space{Domain: suite.Data, Workloads: p.ws}.Normalize()
	return paperInputs(p.e, sp)
}

func (p *paperLive) close() {}

// ---- geo-sweep ----

// geoSweep is a cold design-space sweep: one explore.Run on the D-cache and
// one on the I-cache, each with a fresh in-memory trace cache and no result
// cache. A request is one grid point.
type geoSweep struct {
	e      *env
	spaces []explore.Space
	grids  []*explore.Grid
}

func setupGeoSweep(_ context.Context, e *env) (runner, error) {
	ws := e.cfg.paper()
	d, i := e.cfg.geoD, e.cfg.geoI
	d.Workloads, i.Workloads = ws, ws
	return &geoSweep{e: e, spaces: []explore.Space{d, i}}, buildAll(ws)
}

func (g *geoSweep) run(ctx context.Context, par, _ int) (repeat, error) {
	var rp repeat
	g.grids = g.grids[:0]
	for _, sp := range g.spaces {
		// Untimed: each sweep starts from a quiesced heap, so the last one's
		// captures do not raise this one's peak memory.
		quiesce()
		lat := newLatencies()
		grid, err := explore.Run(ctx, sp, explore.WithParallelism(par), explore.WithProgress(lat.progress))
		rp.wall += time.Since(lat.t0)
		if err != nil {
			return repeat{}, err
		}
		rp.points += len(grid.Points)
		rp.lat = append(rp.lat, lat.ms...)
		g.grids = append(g.grids, grid)
	}
	return rp, nil
}

func (g *geoSweep) check(context.Context) int {
	failed, total := 0, 0
	var all [][]explore.PointResult
	for _, grid := range g.grids {
		for i := range grid.Points {
			if !pointOK(&grid.Points[i]) {
				failed++
			}
		}
		total += len(grid.Points)
		all = append(all, grid.Points)
	}
	if !goldenOK("geo-sweep"+g.e.cfg.tag, digest(all)) {
		failed = total
	}
	return failed
}

func (g *geoSweep) predict(c *costs) time.Duration {
	var ns float64
	for _, grid := range g.grids {
		ns += c.captures(grid.Space.Workloads, grid.Points, false) + c.fanOut(grid)
	}
	return time.Duration(ns)
}

func (g *geoSweep) inputs() layerInputs {
	sp, _ := g.spaces[0].Normalize()
	return paperInputs(g.e, sp)
}

func (g *geoSweep) close() {}

// ---- serve-mix ----

// serveMix drives an in-process daemon over HTTP with closed-loop clients
// working through a list of distinct sweeps, in an order drawn from the
// seed and the repeat; each repeat starts a fresh daemon on a fresh store. A
// request is one sweep, from submit to its terminal event.
type serveMix struct {
	e    *env
	reqs []serve.SweepRequest

	// The daemon of the next or last repeat, opened outside the timing.
	srv *serve.Server
	ts  *httptest.Server

	ids   []string
	stats serve.ServerStats
	// ref holds explore.Run's JSON of every requested point, by refKey.
	ref map[string][]byte
}

// refKey names a point's result: its workload, MAB list and geometry.
func refKey(workload string, mabSets []int, geo cache.Config) string {
	return fmt.Sprint(workload, mabSets, geo)
}

// The axes a serve-mix sweep draws from. Each sweep asks one paper
// benchmark, a non-empty subset of serveSets and of serveWays, one of
// serveLines and one of serveMABs (MAB lists, 2 tag entries each). The pools
// are small so that a repeat's few sweeps overlap: about half of the points
// a repeat requests are already stored or in flight when asked for.
var (
	serveSets  = []int{256, 512}
	serveWays  = []int{2, 4}
	serveLines = [][]int{{16}, {32}, {16, 32}}
	serveMABs  = [][]int{{8}, {16}, {4, 8, 16, 32}, {4, 32}}
)

// serveListSeed draws serve-mix's sweep list. The list is the same for every
// --seed, so a repeat's work and its share of stored points are too; the
// seed orders the requests.
const serveListSeed = 0x5e7e

// genSweeps draws n distinct sweeps over the workloads ws.
func genSweeps(n int, ws []string) []serve.SweepRequest {
	rng := rand.New(rand.NewPCG(serveListSeed, 0))
	seen := map[string]bool{}
	var out []serve.SweepRequest
	for len(out) < n {
		r := serve.SweepRequest{Domain: "data", Sets: subset(rng, serveSets), Ways: subset(rng, serveWays),
			LineBytes: serveLines[rng.IntN(len(serveLines))], TagEntries: []int{2},
			SetEntries: serveMABs[rng.IntN(len(serveMABs))], Workloads: []string{ws[rng.IntN(len(ws))]}}
		if k := fmt.Sprint(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// subset is a random non-empty subset of vals, sorted.
func subset(rng *rand.Rand, vals []int) []int {
	out := slices.Clone(vals)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	out = out[:1+rng.IntN(len(out))]
	slices.Sort(out)
	return out
}

// order is the request order of repeat i, counted from 1. The repeats come
// in pairs (1 and 2, 3 and 4, ...): an order drawn from the seed, then the
// same order reversed. Of two sweeps that share points, each then comes
// first once in a pair, so which of them simulates and which hits the store
// depends less on the draw.
func (s *serveMix) order(i int) []int {
	p := rand.New(rand.NewPCG(uint64(s.e.seed), uint64(i+1)/2)).Perm(len(s.reqs))
	if i%2 == 0 {
		slices.Reverse(p)
	}
	return p
}

func setupServeMix(_ context.Context, e *env) (runner, error) {
	ws := e.cfg.paper()
	if err := buildAll(ws); err != nil {
		return nil, err
	}
	s := &serveMix{e: e, reqs: genSweeps(e.cfg.serveSweeps, names(ws))}
	return s, s.open(e.par)
}

// open starts a daemon on a fresh store.
func (s *serveMix) open(par int) error {
	dir, err := os.MkdirTemp(s.e.dir, "store-")
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{StoreDir: dir, Parallelism: par})
	if err != nil {
		return err
	}
	s.srv, s.ts = srv, httptest.NewServer(srv)
	return nil
}

func (s *serveMix) close() {
	if s.srv == nil {
		return
	}
	s.ts.Close()
	s.srv.Close()
	s.srv, s.ts = nil, nil
}

func (s *serveMix) run(ctx context.Context, par, i int) (repeat, error) {
	if s.srv == nil {
		if err := s.open(par); err != nil {
			return repeat{}, err
		}
	}
	s.ids = make([]string, len(s.reqs))
	lat := make([]float64, len(s.reqs))
	points := make([]int, len(s.reqs))
	errs := make([]error, par)
	order := s.order(i)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(s.ts.URL)
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				j := order[k]
				t := time.Now()
				st, err := cl.Run(ctx, s.reqs[j], nil)
				if err != nil {
					errs[c] = fmt.Errorf("sweep %d: %w", j, err)
					return
				}
				lat[j] = float64(time.Since(t)) / 1e6
				s.ids[j], points[j] = st.ID, st.Metrics.Points
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return repeat{}, err
		}
	}
	s.stats = s.srv.Stats()
	rp := repeat{wall: wall, lat: lat}
	for _, n := range points {
		rp.points += n
	}
	return rp, nil
}

// reference computes every requested point with explore.Run: one run per
// MAB list, over the union of the workloads and geometries asked with it (a
// point's result depends on nothing else), sharing one trace spill
// directory so each workload executes once.
func (s *serveMix) reference(ctx context.Context) error {
	dir, err := os.MkdirTemp(s.e.dir, "ref-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var keys []string
	unions := map[string]serve.SweepRequest{}
	for _, r := range s.reqs {
		k := fmt.Sprint(r.SetEntries)
		u, ok := unions[k]
		if !ok {
			keys = append(keys, k)
			u = serve.SweepRequest{Domain: r.Domain, TagEntries: r.TagEntries, SetEntries: r.SetEntries}
		}
		u.Sets, u.Ways, u.LineBytes = union(u.Sets, r.Sets), union(u.Ways, r.Ways), union(u.LineBytes, r.LineBytes)
		u.Workloads = union(u.Workloads, r.Workloads)
		unions[k] = u
	}
	s.ref = map[string][]byte{}
	for _, k := range keys {
		sp, err := unions[k].Space()
		if err != nil {
			return err
		}
		g, err := explore.Run(ctx, sp, explore.WithTraceDir(dir), explore.WithParallelism(s.e.par))
		if err != nil {
			return err
		}
		for j := range g.Points {
			pr := &g.Points[j]
			blob, err := json.Marshal(pr)
			if err != nil {
				return err
			}
			s.ref[refKey(pr.Workload, unions[k].SetEntries, pr.Geometry)] = blob
		}
	}
	return nil
}

// union is the sorted set of the values of a and b.
func union[T cmp.Ordered](a, b []T) []T {
	return slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(a), b...))))
}

// check compares every point the daemon served with explore.Run's, then
// retires the daemon: the next repeat opens a fresh one.
func (s *serveMix) check(ctx context.Context) int {
	defer s.close()
	if s.ref == nil {
		if err := s.reference(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "bench: serve-mix reference:", err)
			s.ref = nil
			return int(s.stats.RequestedPoints)
		}
	}
	cl := client.New(s.ts.URL)
	failed := 0
	for i, id := range s.ids {
		sp, err := s.reqs[i].Space()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: serve-mix: sweep %d: %v\n", i, err)
			failed++
			continue
		}
		want := sp.Points()
		res, err := cl.Result(ctx, id)
		if err != nil || len(res.Points) != len(want) {
			fmt.Fprintf(os.Stderr, "bench: serve-mix: sweep %d: result %v\n", i, err)
			failed += len(want)
			continue
		}
		for j := range res.Points {
			blob, err := json.Marshal(&res.Points[j])
			if err != nil || string(blob) != string(s.ref[refKey(s.reqs[i].Workloads[0], s.reqs[i].SetEntries, want[j].Geometry)]) || !pointOK(&res.Points[j]) {
				fmt.Fprintf(os.Stderr, "bench: serve-mix: sweep %d point %d differs from explore.Run\n", i, j)
				failed++
			}
		}
	}
	return failed
}

func (s *serveMix) predict(c *costs) time.Duration {
	st := s.stats
	var ns float64
	// Each workload's first simulation captured it and spilled its trace.
	seen := map[string]bool{}
	for _, r := range s.reqs {
		if w := r.Workloads[0]; !seen[w] {
			seen[w] = true
			ns += c.capture(w, "", c.instrs[w], c.events[w], true)
		}
	}
	ns += float64(st.Traces.FanOutEvents)*c.dataShare*c.decodeData +
		float64(st.Traces.FanOutDeliveries)*c.fanData +
		float64(st.Simulations)*c.storePut +
		float64(st.StoreHits)*c.storeGet +
		float64(st.JournalRecords)*c.journal +
		float64(st.Sweeps)*c.sweep
	return time.Duration(ns)
}

func (s *serveMix) inputs() layerInputs {
	sp, _ := s.reqs[0].Space()
	in := paperInputs(s.e, sp)
	in.sweeps = s.reqs[:min(8, len(s.reqs))]
	return in
}

// ---- synth-capture ----

// synthCapture sweeps seeded synthetic specs, every one its own capture:
// per pattern, a cold explore.Run with a result cache and trace spills on a
// fresh directory. The untimed check re-runs the specs with another MAB,
// which misses the result cache and reloads the spilled traces. A request is
// one grid point (start to done).
type synthCapture struct {
	e *env
	// batches holds one pattern's specs each: both ISAs, every footprint.
	batches [][]workloads.Workload
	dir     string
	cold    []*explore.Grid
}

// genSpecs is every pattern × both ISAs × each footprint (KiB), with a
// seed knob drawn from the seed, grouped by pattern. Only the seed knob
// varies with the seed, so a repeat's work is alike across seeds.
func genSpecs(seed int64, accesses int, footprints []int) ([][]workloads.Workload, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5c1f))
	var out [][]workloads.Workload
	for _, p := range synth.Patterns() {
		var batch []workloads.Workload
		for _, prefix := range []string{"", workloads.RV32Prefix} {
			for _, fp := range footprints {
				ws, err := workloads.ExpandByName(fmt.Sprintf("%ssynth:%s,fp=%dKiB,n=%d,seed=%d",
					prefix, p, fp, accesses, 1+rng.IntN(1<<20)))
				if err != nil {
					return nil, err
				}
				batch = append(batch, ws...)
			}
		}
		out = append(out, batch)
	}
	return out, nil
}

func setupSynthCapture(_ context.Context, e *env) (runner, error) {
	batches, err := genSpecs(e.seed, e.cfg.synthAccesses, e.cfg.synthFootprints)
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		if err := buildAll(b); err != nil {
			return nil, err
		}
	}
	return &synthCapture{e: e, batches: batches}, nil
}

func synthSpace(ws []workloads.Workload, mabSets int) explore.Space {
	g := cache.FRV32K
	return explore.Space{Domain: suite.Data, Sets: []int{g.Sets}, Ways: []int{g.Ways}, LineBytes: []int{g.LineBytes},
		TagEntries: []int{2}, SetEntries: []int{mabSets}, Workloads: ws}
}

// sweep runs every batch against the repeat's result cache and spills, one
// explore.Run each.
func (s *synthCapture) sweep(ctx context.Context, par, mabSets int) ([]*explore.Grid, repeat, error) {
	var grids []*explore.Grid
	var rp repeat
	for _, b := range s.batches {
		quiesce() // untimed, as in geoSweep.run
		lat := newLatencies()
		g, err := explore.Run(ctx, synthSpace(b, mabSets), explore.WithParallelism(par),
			explore.WithCacheDir(filepath.Join(s.dir, "results")), explore.WithTraceDir(filepath.Join(s.dir, "traces")),
			explore.WithProgress(lat.progress))
		rp.wall += time.Since(lat.t0)
		if err != nil {
			return nil, rp, err
		}
		grids = append(grids, g)
		rp.points += len(g.Points)
		rp.lat = append(rp.lat, lat.ms...)
	}
	return grids, rp, nil
}

func (s *synthCapture) run(ctx context.Context, par, _ int) (repeat, error) {
	dir, err := os.MkdirTemp(s.e.dir, "synth-")
	if err != nil {
		return repeat{}, err
	}
	s.dir = dir
	grids, rp, err := s.sweep(ctx, par, 8)
	s.cold = grids
	return rp, err
}

func (s *synthCapture) check(ctx context.Context) int {
	defer os.RemoveAll(s.dir)
	var cold []explore.PointResult
	for _, g := range s.cold {
		cold = append(cold, g.Points...)
	}
	warm, _, err := s.sweep(ctx, s.e.par, 16)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: synth-capture: reload pass: %v\n", err)
		return len(cold)
	}
	var reloaded []explore.PointResult
	for _, g := range warm {
		if g.Misses != len(g.Points) || g.Traces.Captures != 0 {
			fmt.Fprintln(os.Stderr, "bench: synth-capture: reload pass did not reload every trace")
			return len(cold)
		}
		reloaded = append(reloaded, g.Points...)
	}
	failed := 0
	for i := range cold {
		c, w := &cold[i], &reloaded[i]
		if !pointOK(c) || !pointOK(w) || digest(c.Techs[0]) != digest(w.Techs[0]) ||
			c.Cycles != w.Cycles || c.Instrs != w.Instrs {
			fmt.Fprintf(os.Stderr, "bench: synth-capture: %s: reload disagrees with the cold pass\n", c.Workload)
			failed++
		}
	}
	if !goldenOK(fmt.Sprintf("synth-capture%s/seed=%d", s.e.cfg.tag, s.e.seed), digest(cold)) {
		failed = len(cold)
	}
	return failed
}

func (s *synthCapture) predict(c *costs) time.Duration {
	var ns float64
	for _, g := range s.cold {
		ns += c.captures(g.Space.Workloads, g.Points, true) + c.fanOut(g) +
			float64(len(g.Points))*(c.key+c.cacheGet+c.cachePut)
	}
	return time.Duration(ns)
}

// inputs samples the middle footprint of each pattern on each ISA.
func (s *synthCapture) inputs() layerInputs {
	var in layerInputs
	for _, b := range s.batches {
		in.names = append(in.names, names(b)...)
		half := len(b) / 2
		in.frvl = append(in.frvl, b[half/2])
		in.rv32 = append(in.rv32, b[half+half/2])
	}
	in.space, _ = synthSpace(s.batches[0], 8).Normalize()
	in.sweeps = pointSweeps(names(in.frvl[:min(4, len(in.frvl))]), 8)
	return in
}

func (s *synthCapture) close() {}
