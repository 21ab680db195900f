package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile read off fewer tail samples is one or two outliers, not a tail.
const minTail = 10

// tail is one percentile read off a sample set, with the percentile actually
// used and the sample count it rests on.
type tail struct {
	Value float64
	Pct   float64 // percentile used; below the one asked for when samples are few
	N     int
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// tailPercentile reads the want-th percentile of xs when at least minTail
// samples lie beyond it, and otherwise the highest percentile that still has
// minTail samples beyond it (never below the median). xs is sorted in place.
func tailPercentile(xs []float64, want float64) tail {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN(), Pct: want}
	}
	p := want
	if beyond := n - int(math.Ceil(want/100*float64(n))); beyond < minTail {
		// The largest rank k with n-k >= minTail, as a percentile.
		k := n - minTail
		p = math.Floor(1000*float64(k)/float64(n)) / 10
		if p < 50 {
			p = 50
		}
	}
	return tail{Value: percentile(xs, p), Pct: p, N: n}
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread printed here is the spread the acceptance rule
// reads. len(xs) must be at least 2.
func quartiles(xs []float64) [3]float64 {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// series is a latency sample set that keeps each sample's time within the
// measured phase, so tails can be read stretch by stretch.
type series struct {
	at, v []time.Duration
}

func (s *series) add(at, v time.Duration) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

func (s *series) merge(o series) {
	s.at = append(s.at, o.at...)
	s.v = append(s.v, o.v...)
}

func (s series) len() int { return len(s.v) }

// msValues returns the samples in milliseconds.
func (s series) msValues() []float64 { return durationsMS(s.v) }

const (
	// stretchMin is the fewest samples a stretch may hold, so that its p90
	// still has minTail samples beyond it.
	stretchMin = 100
	// maxStretches caps how many stretches a run is cut into.
	maxStretches = 15
)

// steadyPercentile cuts the samples, in time order, into up to maxStretches
// contiguous stretches of at least stretchMin samples, reads the p-th
// percentile of each and returns their median. A stall that slows one
// stretch of the run moves a whole-run tail a lot and this one little: it
// reports the tail the run shows most of the time.
func (s series) steadyPercentile(p float64) tail {
	n := s.len()
	if n == 0 {
		return tail{Value: math.NaN(), Pct: p}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.at[idx[a]] < s.at[idx[b]] })
	k := min(max(n/stretchMin, 1), maxStretches)
	vals := make([]float64, 0, k)
	for c := 0; c < k; c++ {
		lo, hi := c*n/k, (c+1)*n/k
		chunk := make([]float64, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			chunk = append(chunk, ms(s.v[i]))
		}
		sort.Float64s(chunk)
		vals = append(vals, percentile(chunk, p))
	}
	return tail{Value: median(vals), Pct: p, N: n}
}
