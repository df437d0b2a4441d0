package main

import (
	"math"
	"sort"
)

// tailLadder lists the tail percentiles the benchmark may report, from
// the one it wants down to the median.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that has at
// least ten of n samples beyond it, so a tail figure is never one or
// two unlucky samples. Below twenty samples no percentile qualifies
// and it falls back to the median.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= 10 {
			return q
		}
	}
	return 50
}

// percentile is the nearest-rank q-th percentile of xs (unsorted; xs is
// not modified). It returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// dist summarizes one timing sample: median and the tail percentile
// tailPercentile admits, with the sample count.
type dist struct {
	n         int
	p50, tail float64
	tailQ     float64
}

func summarize(xs []float64) dist {
	q := tailPercentile(len(xs))
	return dist{n: len(xs), p50: percentile(xs, 50), tail: percentile(xs, q), tailQ: q}
}
