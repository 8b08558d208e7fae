package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by nearest rank, without
// reordering xs. It is NaN for an empty xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile cuts xs into consecutive windows of perWindow
// samples (a trailing partial window is dropped) and returns the median
// over windows of each window's q-quantile. One stall therefore moves
// one window, not the result; a quantile over the whole run would be
// moved by any stall longer than (1-q) of the run. A sample of +Inf is a
// row that was never decided: it sits beyond every finite age, so a
// failed row counts as missing any age limit.
func windowedQuantile(xs []float64, perWindow int, q float64) float64 {
	var per []float64
	for lo := 0; lo+perWindow <= len(xs); lo += perWindow {
		per = append(per, quantile(xs[lo:lo+perWindow], q))
	}
	return median(per)
}

// iqrShare is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method): the spread the
// benchmark's acceptance is judged by.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		// Exclusive method: position p*(n+1), 1-based, clamped.
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := math.Floor(pos)
		return s[int(lo)] + (pos-lo)*(s[int(lo)+1]-s[int(lo)])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}
