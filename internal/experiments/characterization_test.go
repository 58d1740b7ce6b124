package experiments

import (
	"testing"
)

// Per-benchmark characterization: pins the measured MAB behaviour into
// bands so regressions in the workloads, the simulator or the MAB itself
// surface immediately. Bounds are deliberately loose (the exact numbers
// are in `wmx -exp report`); ordering facts come from the paper.
func TestPerBenchmarkMABHitRates(t *testing.T) {
	r := getSuite(t)
	// D-cache MAB (2x8) hit-rate floors. compress carries a dictionary
	// bigger than the D-cache and sits far below the media kernels — the
	// same relative ordering as the paper's figures.
	dFloor := map[string]float64{
		"DCT":       0.50,
		"FFT":       0.80,
		"dhrystone": 0.70,
		"whetstone": 0.80,
		"compress":  0.15,
		"jpeg_enc":  0.60,
		"mpeg2enc":  0.70,
	}
	for _, b := range r.Benchmarks {
		d := b.D[DMAB].Stats
		if hr := d.MABHitRate(); hr < dFloor[b.Name] {
			t.Errorf("%s: D-MAB hit rate %.2f below floor %.2f", b.Name, hr, dFloor[b.Name])
		}
		// Bypasses (large displacements) must be rare: the paper reports
		// >99% of displacements in range.
		if frac := float64(d.MABBypasses) / float64(d.Accesses); frac > 0.01 {
			t.Errorf("%s: %.2f%% of D accesses bypassed the MAB", b.Name, frac*100)
		}
		// The I-MAB covers loops and calls almost completely on these
		// kernels (whetstone's many small helpers churn its tables most).
		i := b.I[IMAB16].Stats
		if hr := i.MABHitRate(); hr < 0.85 {
			t.Errorf("%s: I-MAB hit rate %.2f below 0.85", b.Name, hr)
		}
	}
	// compress must be the weakest D-cache benchmark — the ordering the
	// paper's figures show.
	var compressHR, minOtherHR float64 = 0, 1
	for _, b := range r.Benchmarks {
		hr := b.D[DMAB].Stats.MABHitRate()
		if b.Name == "compress" {
			compressHR = hr
		} else if hr < minOtherHR {
			minOtherHR = hr
		}
	}
	if compressHR >= minOtherHR {
		t.Errorf("compress D-MAB hit rate %.2f not the weakest (min other %.2f)",
			compressHR, minOtherHR)
	}
}

// TestCacheHitRatesRealistic: 32KB caches over embedded kernels should hit
// nearly always — the regime the paper's power numbers assume.
func TestCacheHitRatesRealistic(t *testing.T) {
	for _, b := range getSuite(t).Benchmarks {
		floor := 0.95
		if b.Name == "compress" {
			floor = 0.85 // its 48KB dictionary exceeds the 32KB D-cache
		}
		if hr := b.D[DOrig].Stats.HitRate(); hr < floor {
			t.Errorf("%s: D hit rate %.3f suspiciously low", b.Name, hr)
		}
		if hr := b.I[IOrig].Stats.HitRate(); hr < 0.98 {
			t.Errorf("%s: I hit rate %.3f suspiciously low", b.Name, hr)
		}
	}
}

// TestStoreFractionPlausible: every benchmark issues a realistic mix of
// loads and stores (the write-back-buffer modelling depends on it).
func TestStoreFractionPlausible(t *testing.T) {
	for _, b := range getSuite(t).Benchmarks {
		s := b.D[DOrig].Stats
		frac := float64(s.Stores) / float64(s.Accesses)
		if frac < 0.02 || frac > 0.60 {
			t.Errorf("%s: store fraction %.2f outside [0.02,0.60]", b.Name, frac)
		}
	}
}
