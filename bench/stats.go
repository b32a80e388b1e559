package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before
// a run reports it; with fewer, the percentile is one or two samples
// wide and moves with noise alone.
const minBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest ranks (q = 0.5 is the median). xs must be non-empty;
// it is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples of an n-sample set that lie strictly above
// the interpolation point of its q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// tailQuantile returns the q-quantile of xs and whether it may be
// reported: at least minBeyond samples must lie beyond it.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	if beyond(len(xs), q) < minBeyond {
		return 0, false
	}
	return quantile(xs, q), true
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
