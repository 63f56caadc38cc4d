package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	// Re-registration returns the same series.
	if got := r.Counter("test_total", "a counter").Value(); got != 3 {
		t.Fatalf("re-registered counter = %v, want 3", got)
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestLabeledCounters(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("pkts_total", "packets", "kind")
	v.With("tx").Add(3)
	v.With("envelope").Inc()
	v.With("tx").Inc()
	if got := v.With("tx").Value(); got != 4 {
		t.Fatalf("tx = %v, want 4", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Samples) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Samples sorted by label value: envelope before tx.
	if snap[0].Samples[0].LabelValues[0] != "envelope" || snap[0].Samples[1].LabelValues[0] != "tx" {
		t.Fatalf("sample order = %+v", snap[0].Samples)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	s := snap[0].Samples[0]
	// Cumulative: ≤0.1 → 2 (0.05 and the boundary 0.1), ≤1 → 3, ≤10 → 4, +Inf → 5.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if s.BucketCounts[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all=%v)", i, s.BucketCounts[i], w, s.BucketCounts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 105.65 {
		t.Fatalf("sum = %v", s.Sum)
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 6 {
		t.Fatalf("count after ObserveDuration = %d", h.Count())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("a_total", "counts a", "who").With(`we"ird\label`).Add(2)
	r.Gauge("b_gauge", "gauges b").Set(1.5)
	r.Histogram("c_seconds", "times c", []float64{0.5}).Observe(0.25)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total counts a\n",
		"# TYPE a_total counter\n",
		`a_total{who="we\"ird\\label"} 2` + "\n",
		"# TYPE b_gauge gauge\n",
		"b_gauge 1.5\n",
		"# TYPE c_seconds histogram\n",
		`c_seconds_bucket{le="0.5"} 1` + "\n",
		`c_seconds_bucket{le="+Inf"} 1` + "\n",
		"c_seconds_sum 0.25\n",
		"c_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("conc_total", "c", "worker")
	h := r.Histogram("conc_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := v.With(string(rune('a' + w)))
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) / 1000)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for _, s := range r.Snapshot() {
		if s.Name != "conc_total" {
			continue
		}
		for _, smp := range s.Samples {
			total += smp.Value
		}
	}
	if total != 8000 {
		t.Fatalf("total = %v, want 8000", total)
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}
