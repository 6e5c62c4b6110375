package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// oracle is the nearest-rank quantile by its definition: the smallest
// sample x with at least p·n samples at or below x.
func oracle(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, x := range s {
		atOrBelow := 0
		for _, y := range s {
			if y <= x {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p*float64(len(s)) {
			return x
		}
	}
	return s[len(s)-1]
}

func TestPercentileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(50)) // ties on purpose
		}
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			if got, want := percentile(xs, p), oracle(xs, p); got != want {
				t.Fatalf("n=%d p=%g: percentile = %g, oracle %g", n, p, got, want)
			}
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("percentile of no samples should be NaN")
	}
}

func TestBeyondCountsSamplesAboveTheRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 0.99, 10}, {100, 0.99, 1}, {10, 0.5, 5}, {1, 0.99, 0}, {0, 0.5, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %g", m)
	}
}

func TestScheduleArithmetic(t *testing.T) {
	// Integer rates land exactly on the grid, without drift.
	if got := slot(1000, 1000, 0); got != time.Second {
		t.Fatalf("slot(1000) at 1000/s = %v", got)
	}
	if got := slot(3, 2, 250*time.Millisecond); got != 1750*time.Millisecond {
		t.Fatalf("phased slot = %v", got)
	}
	for _, c := range []struct {
		rate          float64
		phase, window time.Duration
		want          int
	}{
		{1000, 0, time.Second, 1000},
		{1000, 0, time.Second + time.Nanosecond, 1001},
		{3, 0, time.Second, 3},
		{0.5, time.Second, 20 * time.Second, 10},
		{1, 2 * time.Second, time.Second, 0},
		{0, 0, time.Second, 0},
	} {
		if got := slots(c.rate, c.phase, c.window); got != c.want {
			t.Errorf("slots(%g, %v, %v) = %d, want %d", c.rate, c.phase, c.window, got, c.want)
		}
	}
	// Every counted slot is inside the window and the next one is not.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		rate := 0.1 + rng.Float64()*5000
		phase := time.Duration(rng.Int63n(int64(time.Second)))
		window := time.Duration(rng.Int63n(int64(5 * time.Second)))
		n := slots(rate, phase, window)
		if n > 0 && slot(n-1, rate, phase) >= window {
			t.Fatalf("slot %d of rate %g is past the window", n-1, rate)
		}
		if phase < window && slot(n, rate, phase) < window {
			t.Fatalf("slot %d of rate %g is inside the window but not counted", n, rate)
		}
	}
}
