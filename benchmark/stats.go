package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples within a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the highest percentile of tailLadder with at least ten
	// samples beyond it, and Tail its value; both are 0 when fewer than 20
	// samples exist.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	N       int     `json:"n"`
}

// tailLadder lists the percentiles a tail is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// summarize computes the median, the quartiles and the tail of samples.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := quartiles(s)
	sum := summary{Median: median(s), Q1: q[0], Q3: q[2], N: len(s)}
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if rank >= 1 && len(s)-rank >= 10 {
			sum.TailPct, sum.Tail = p, s[rank-1]
		}
	}
	return sum
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the three cut points of sorted data the way Python's
// statistics.quantiles(data, n=4) computes them (the default "exclusive"
// method), so a run's spread reads the same here and in a script that
// recomputes it.
func quartiles(sorted []float64) [3]float64 {
	ld := len(sorted)
	if ld == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return out
}
