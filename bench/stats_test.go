package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose: input must not need sorting
	for _, c := range []struct{ q, want float64 }{
		{0.5, 3}, {0.2, 1}, {0.21, 2}, {0.99, 5}, {1, 5}, {0.0001, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestRatioOfIdleLayer(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio must be a/b, and 0 on an empty denominator")
	}
}
