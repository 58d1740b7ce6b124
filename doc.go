// Package waymemo reproduces "A Way Memoization Technique for Reducing
// Power Consumption of Caches in Application Specific Integrated
// Processors" (Ishihara & Fallah, DATE 2005).
//
// The library lives under internal/: the Memory Address Buffer and the
// way-memoized cache controllers in internal/core, the FRVL processor
// substrate (ISA, assembler, simulator) in internal/isa, internal/asm and
// internal/sim, the cache and power models in internal/cache,
// internal/cacti, internal/synth and internal/power, the paper's seven
// benchmarks and the parameterized synthetic workload family ("synth:"
// specs) in internal/workloads, the technique registry and parallel
// suite runner in internal/suite, and the table/figure rendering in
// internal/experiments.
//
// See README.md for a tour, ARCHITECTURE.md for the system's design and
// `wmx -exp report` for paper-versus-measured results. The benchmarks in
// bench_test.go regenerate every table and figure:
//
//	go test -bench=. -benchmem
package waymemo
