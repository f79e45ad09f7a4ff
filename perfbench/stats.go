package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its smallest and largest value
// (of xs itself when it has fewer than three). Restart times on a shared
// host fall into two levels that switch every few seconds, about 1.5x
// apart; a median flips between the levels with the share of restarts
// that landed on each, a mean moves with that share smoothly.
func trimmedMean(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys) >= 3 {
		ys = ys[1 : len(ys)-1]
	}
	return mean(ys)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
