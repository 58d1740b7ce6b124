package main

import (
	"math"
	"slices"
)

// median returns the middle value (the mean of the two middle values for an
// even count), 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least a q share of the samples at or below it.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// beyond counts the samples strictly above x.
func beyond(v []float64, x float64) int {
	n := 0
	for _, s := range v {
		if s > x {
			n++
		}
	}
	return n
}

// mean returns the arithmetic mean, 0 for no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tail returns the slowest share of the values (at least one): the largest
// ceil(share × len) of them.
func tail(v []float64, share float64) []float64 {
	s := slices.Sorted(slices.Values(v))
	k := max(int(math.Ceil(share*float64(len(s)))), min(len(s), 1))
	return s[len(s)-k:]
}
