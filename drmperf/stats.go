package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p·n samples at or below it. xs need not be
// sorted and is not modified. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the zero-based nearest-rank index of the p-quantile among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// beyond counts the samples strictly above the p-quantile's rank — the
// samples a reader needs to trust that percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count), or NaN for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// slot is the intended send offset of the i-th operation of a stream
// offered at rate operations per second, starting at phase. Offsets are
// computed from i rather than accumulated, so rounding never drifts.
func slot(i int, rate float64, phase time.Duration) time.Duration {
	return phase + time.Duration(float64(i)*float64(time.Second)/rate)
}

// slots returns how many operations a stream offered at rate, starting
// at phase, sends within a window: every slot strictly before window.
func slots(rate float64, phase, window time.Duration) int {
	if rate <= 0 || phase >= window {
		return 0
	}
	n := int(math.Ceil(float64(window-phase) * rate / float64(time.Second)))
	for n > 0 && slot(n-1, rate, phase) >= window {
		n--
	}
	for slot(n, rate, phase) < window {
		n++
	}
	return n
}
