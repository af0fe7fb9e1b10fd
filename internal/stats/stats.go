// Package stats provides the small statistical toolkit the study uses:
// arithmetic means, min/max summaries, parallel efficiency,
// and the signed-ratio transform the paper's figures are plotted in
// ("zero means the same performance, +N means N times faster, -N means
// N times slower").
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// SignedRatio converts a performance ratio r (baseline time / test time,
// so r > 1 means the test configuration is faster) into the signed scale
// used by the paper's figures:
//
//	r = 1   ->  0   (same performance)
//	r = 2   -> +1   ("one time faster", i.e. double)
//	r = 0.5 -> -1   ("twice as slow")
//
// The transform is antisymmetric: SignedRatio(1/r) == -SignedRatio(r).
func SignedRatio(r float64) float64 {
	if r <= 0 || math.IsNaN(r) {
		return math.NaN()
	}
	if r >= 1 {
		return r - 1
	}
	return 1 - 1/r
}

// ParallelEfficiency returns speedup/threads, which "ranges from 1 to 0,
// where 1 is optimal" (footnote 3 of the paper). Super-linear speedups
// (Table 3 reports PE 1.40 for Stream at 8 threads) are preserved, not
// clamped.
func ParallelEfficiency(speedup float64, threads int) float64 {
	if threads <= 0 {
		return math.NaN()
	}
	return speedup / float64(threads)
}

// Summary aggregates a set of per-kernel ratios into the form the
// paper's bar-and-whisker figures report for one benchmark class: the
// class average plus the maximum and minimum ratios.
type Summary struct {
	N    int     // number of kernels aggregated
	Mean float64 // average ratio across the class
	Min  float64 // minimum ratio (bottom of the whisker)
	Max  float64 // maximum ratio (top of the whisker)
}

// Summarize builds a Summary from raw (unsigned) performance ratios.
func Summarize(ratios []float64) Summary {
	if len(ratios) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(ratios),
		Mean: Mean(ratios),
		Min:  Min(ratios),
		Max:  Max(ratios),
	}
}

// SignedMean is the class-average bar height on the paper's signed scale.
func (s Summary) SignedMean() float64 { return SignedRatio(s.Mean) }

// SignedMin is the bottom whisker on the signed scale.
func (s Summary) SignedMin() float64 { return SignedRatio(s.Min) }

// SignedMax is the top whisker on the signed scale.
func (s Summary) SignedMax() float64 { return SignedRatio(s.Max) }

// String renders the summary in a compact "mean [min, max]" form.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f] (n=%d)", s.Mean, s.Min, s.Max, s.N)
}
