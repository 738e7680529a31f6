package main

import (
	"math"
	"sort"
	"time"
)

// quantile is one order statistic taken from a sample, with the sample
// size and the number of samples strictly above it. A percentile is
// only worth reporting when at least ten samples lie beyond it.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. xs is not modified. An empty sample gives NaN.
func percentile(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v := s[rank-1]
	beyond := n - sort.Search(n, func(i int) bool { return s[i] > v })
	return quantile{Value: v, N: n, Beyond: beyond}
}

// median is the 50th nearest-rank percentile's value.
func median(xs []float64) float64 { return percentile(xs, 50).Value }

// sample is one operation of a measured phase: when it ended (for the
// open loop, when it was due), how long it took, and the work units it
// completed.
type sample struct {
	at, dur time.Duration
	work    int
}

// windows is how many equal slices of its phase a metric is computed
// over; the metric is the median of the slices' values, so a transient
// disturbance confined to one slice does not move it.
const windows = 5

// sliced splits samples into windows equal slices of span by their time.
func sliced(ss []sample, span time.Duration) [windows][]sample {
	var out [windows][]sample
	for _, s := range ss {
		w := int(int64(s.at) * windows / int64(span))
		w = min(max(w, 0), windows-1)
		out[w] = append(out[w], s)
	}
	return out
}

// windowedThroughput is the median over slices of work per second of
// busy time, with conc operations running at once.
func windowedThroughput(ss []sample, span time.Duration, conc int) float64 {
	var rates []float64
	for _, w := range sliced(ss, span) {
		var work, busy float64
		for _, s := range w {
			work += float64(s.work)
			busy += s.dur.Seconds()
		}
		if busy > 0 {
			rates = append(rates, work*float64(conc)/busy)
		}
	}
	return median(rates)
}

// windowedPercentile is the median over slices of the slice's p-th
// percentile of durations, in ms.
func windowedPercentile(ss []sample, span time.Duration, p float64) float64 {
	var qs []float64
	for _, w := range sliced(ss, span) {
		if len(w) > 0 {
			qs = append(qs, percentile(durationsMs(w), p).Value)
		}
	}
	return median(qs)
}

// durationsMs returns the samples' durations in ms.
func durationsMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur) / 1e6
	}
	return out
}

// totalWork sums the samples' work units.
func totalWork(ss []sample) int {
	n := 0
	for _, s := range ss {
		n += s.work
	}
	return n
}
