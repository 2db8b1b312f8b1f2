package main

import (
	"math"
	"sort"
)

// sample is one timing with the instant it completed, so a traced window's
// samples can be sorted by the slice they fell in.
type sample struct {
	at int64   // completion, ns since the window opened
	v  float64 // the measured value, in the metric's unit
}

// values strips the timestamps.
func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.v
	}
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of vs by linear
// interpolation between closest ranks. vs need not be sorted; it is not
// modified. An empty input yields 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// tailLadder is the set of tail percentiles a report may name.
var tailLadder = []float64{99.9, 99, 95, 90}

// beyond is how many samples must lie above a percentile before it is
// reported: fewer and the figure is one or two outliers, not a tail.
const beyond = 10

// highestPercentile returns the highest percentile of tailLadder that has at
// least `beyond` of n samples above it, or 50 when none does.
func highestPercentile(n int) float64 {
	for _, p := range tailLadder {
		if supports(n, p) {
			return p
		}
	}
	return 50
}

// supports reports whether n samples carry percentile p under the same rule.
// The slack absorbs the rounding of 100 − 99.9.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= beyond-1e-9
}

// quartiles returns the first, second and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the exclusive method), which
// is what the acceptance check of a benchmark run uses. It needs two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range of vs as a share of their median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
