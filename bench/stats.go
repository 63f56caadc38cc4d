package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of xs by nearest rank: the
// smallest sample with at least q of the samples at or below it. xs need
// not be sorted; it is not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie beyond a percentile before it is
// worth reporting (choosing-metrics guide, section 1).
const minBeyond = 10

// highestSupportedPercentile returns the highest of 50, 90, 99, 99.9 that
// still has at least minBeyond of the n samples beyond it, or 0 when even
// the median does not.
func highestSupportedPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 990, 999} {
		if n*(1000-permille) >= minBeyond*1000 {
			best = float64(permille) / 10
		}
	}
	return best
}

// ratio is a/b with 0 for an empty denominator, for per-ledger and per-tx
// layer metrics that must stay finite on an idle layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
