package timeseries

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"stellar/internal/obs"
)

func TestRingEvictionAndSpan(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "test gauge")
	r := New(4)
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		r.Observe(time.Duration(i)*time.Second, reg.Snapshot())
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	oldest, newest, ok := r.Span()
	if !ok || oldest != 6*time.Second || newest != 9*time.Second {
		t.Fatalf("Span = %v..%v ok=%v, want 6s..9s", oldest, newest, ok)
	}
	if v, ok := r.Last("g"); !ok || v != 9 {
		t.Fatalf("Last(g) = %v,%v, want 9,true", v, ok)
	}
}

func TestLastMissingAndHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h", "test histogram", []float64{1, 2})
	h.Observe(1.5)
	r := New(8)
	if _, ok := r.Last("h"); ok {
		t.Fatal("Last on empty ring should report no data")
	}
	r.Observe(time.Second, reg.Snapshot())
	if _, ok := r.Last("h"); ok {
		t.Fatal("Last on a histogram family should report no data")
	}
	if _, ok := r.Last("nope"); ok {
		t.Fatal("Last on a missing family should report no data")
	}
}

func TestDeltaBaselineGating(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c", "test counter")
	r := New(16)

	c.Inc()
	r.Observe(1*time.Second, reg.Snapshot())
	// Window reaches back before the first sample: no baseline, unknown.
	if _, ok := r.Delta("c", 10*time.Second, 5*time.Second); ok {
		t.Fatal("Delta without a baseline sample must report no data")
	}

	c.Add(4)
	r.Observe(12*time.Second, reg.Snapshot())
	d, ok := r.Delta("c", 11*time.Second, 12*time.Second)
	if !ok || d != 4 {
		t.Fatalf("Delta = %v,%v, want 4,true", d, ok)
	}
	// Rate over the same window.
	rate, ok := r.Rate("c", 11*time.Second, 12*time.Second)
	if !ok || math.Abs(rate-4.0/11.0) > 1e-9 {
		t.Fatalf("Rate = %v,%v", rate, ok)
	}
	// Stalled counter: later samples with no growth yield a zero delta.
	r.Observe(30*time.Second, reg.Snapshot())
	d, ok = r.Delta("c", 15*time.Second, 30*time.Second)
	if !ok || d != 0 {
		t.Fatalf("stalled Delta = %v,%v, want 0,true", d, ok)
	}
}

// TestDeltaAcrossCounterReset: a registry replaced mid-window (a restarted
// process) restarts its counters at zero. The growth after the drop still
// counts, so a replacement that closed ledgers is not read as stalled; one
// that closed none is.
func TestDeltaAcrossCounterReset(t *testing.T) {
	r := New(16)
	observe := func(at time.Duration, v float64) {
		reg := obs.NewRegistry()
		reg.Counter("c", "test counter").Add(v)
		r.Observe(at, reg.Snapshot())
	}
	observe(0, 3)
	observe(10*time.Second, 3) // the old process, stalled
	observe(11*time.Second, 0) // its replacement
	observe(15*time.Second, 2)
	observe(20*time.Second, 3)
	if d, ok := r.Delta("c", 20*time.Second, 20*time.Second); !ok || d != 3 {
		t.Fatalf("Delta across a reset = %v,%v, want 3,true (the replacement's closes)", d, ok)
	}
	if d, ok := r.Delta("c", 10*time.Second, 10*time.Second); !ok || d != 0 {
		t.Fatalf("Delta before the reset = %v,%v, want 0,true", d, ok)
	}
	observe(40*time.Second, 0) // replaced again, and closes nothing
	if d, ok := r.Delta("c", 19*time.Second, 40*time.Second); !ok || d != 0 {
		t.Fatalf("Delta of a replacement that closed nothing = %v,%v, want 0,true", d, ok)
	}
}

func TestMaxWindow(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "test gauge")
	r := New(16)
	for i, v := range []float64{1, 9, 3} {
		g.Set(v)
		r.Observe(time.Duration(i+1)*time.Second, reg.Snapshot())
	}
	if m, ok := r.Max("g", 3*time.Second, 3*time.Second); !ok || m != 9 {
		t.Fatalf("Max = %v,%v, want 9,true", m, ok)
	}
	// Window covering only the last sample.
	if m, ok := r.Max("g", time.Second, 3*time.Second); !ok || m != 3 {
		t.Fatalf("narrow Max = %v,%v, want 3,true", m, ok)
	}
	if _, ok := r.Max("g", time.Second, 10*time.Second); ok {
		t.Fatal("Max over an empty window should report no data")
	}
}

func TestWindowQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h", "latency", []float64{1, 2, 4})
	r := New(16)
	r.Observe(0, reg.Snapshot()) // baseline before any observations

	for _, v := range []float64{0.5, 1.5, 1.5, 3} {
		h.Observe(v)
	}
	r.Observe(10*time.Second, reg.Snapshot())

	w, ok := r.Window("h", 10*time.Second, 10*time.Second)
	if !ok {
		t.Fatal("Window should succeed with a baseline")
	}
	if w.Count != 4 || math.Abs(w.Sum-6.5) > 1e-9 {
		t.Fatalf("Window Count=%d Sum=%v", w.Count, w.Sum)
	}
	// rank(0.5) = 2 observations: bucket (1,2] holds obs 2..3, so
	// p50 = 1 + (2-1)*(2-1)/2 = 1.5.
	if q, ok := w.Quantile(0.5); !ok || math.Abs(q-1.5) > 1e-9 {
		t.Fatalf("p50 = %v,%v, want 1.5", q, ok)
	}
	// p100 falls in bucket (2,4]: 2 + 2*(4-3)/1 = 4.
	if q, ok := w.Quantile(1); !ok || math.Abs(q-4) > 1e-9 {
		t.Fatalf("p100 = %v,%v, want 4", q, ok)
	}
}

func TestQuantileInfClampAndEmpty(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h", "latency", []float64{1, 2})
	r := New(16)
	r.Observe(0, reg.Snapshot())
	h.Observe(100) // lands in +Inf bucket
	r.Observe(5*time.Second, reg.Snapshot())

	w, ok := r.Window("h", 5*time.Second, 5*time.Second)
	if !ok {
		t.Fatal("Window failed")
	}
	if q, ok := w.Quantile(0.99); !ok || q != 2 {
		t.Fatalf("+Inf quantile = %v,%v, want clamp to 2", q, ok)
	}
	// A window with zero observations has no quantile.
	empty := HistWindow{Bounds: []float64{1, 2}, Cum: []uint64{0, 0, 0}}
	if _, ok := empty.Quantile(0.99); ok {
		t.Fatal("empty window should have no quantile")
	}
}

// TestWindowLabelSummed: a labeled histogram family is summed over its
// children. The registry has no labeled histograms, so the snapshots are
// built by hand.
func TestWindowLabelSummed(t *testing.T) {
	snap := func(a, b uint64) []obs.FamilySnapshot {
		return []obs.FamilySnapshot{{Name: "h", Kind: obs.KindHistogram, Buckets: []float64{1, 2}, Samples: []obs.Sample{
			{LabelNames: []string{"peer"}, LabelValues: []string{"a"}, BucketCounts: []uint64{a, a, a}, Sum: 0.5 * float64(a), Count: a},
			{LabelNames: []string{"peer"}, LabelValues: []string{"b"}, BucketCounts: []uint64{0, b, b}, Sum: 1.5 * float64(b), Count: b},
		}}}
	}
	r := New(16)
	r.Observe(0, snap(0, 0))
	r.Observe(10*time.Second, snap(1, 1))
	w, ok := r.Window("h", 10*time.Second, 10*time.Second)
	if !ok || w.Count != 2 {
		t.Fatalf("labeled Window Count = %d ok=%v, want 2", w.Count, ok)
	}
	if w.Sum != 2 || len(w.Cum) != 3 || w.Cum[0] != 1 || w.Cum[1] != 2 || w.Cum[2] != 2 {
		t.Fatalf("labeled Window Sum = %v Cum = %v, want 2 and [1 2 2]", w.Sum, w.Cum)
	}
}

func TestExport(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c", "test counter")
	h := reg.Histogram("h", "latency", []float64{1})
	r := New(16)
	for i := 1; i <= 5; i++ {
		c.Inc()
		h.Observe(0.5)
		r.Observe(time.Duration(i)*time.Second, reg.Snapshot())
	}
	ex := r.Export(2*time.Second, 5*time.Second)
	if ex.Schema != ExportSchema {
		t.Fatalf("schema = %q", ex.Schema)
	}
	if len(ex.Samples) != 2 { // samples at 4s and 5s (3s is the edge, excluded)
		t.Fatalf("windowed export has %d samples, want 2", len(ex.Samples))
	}
	if got := ex.Samples[len(ex.Samples)-1].Points["c"].Value; got != 5 {
		t.Fatalf("exported counter = %v, want 5", got)
	}
	if b := ex.Bounds["h"]; len(b) != 1 || b[0] != 1 {
		t.Fatalf("exported bounds = %v", b)
	}
	// window ≤ 0 exports everything; document must round-trip as JSON.
	all := r.Export(0, 5*time.Second)
	if len(all.Samples) != 5 {
		t.Fatalf("full export has %d samples, want 5", len(all.Samples))
	}
	raw, err := json.Marshal(all)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Export
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Samples[0].Points["h"].Kind != "histogram" {
		t.Fatalf("round-trip kind = %q", back.Samples[0].Points["h"].Kind)
	}
}

func TestSampler(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "test gauge")
	g.Set(7)
	r := New(16)
	var clock time.Duration
	pres, samples := 0, 0
	s := &Sampler{
		Reg: reg, Ring: r, Interval: time.Hour, // ticker never fires in-test
		Clock:    func() time.Duration { return clock },
		Pre:      func() { pres++ },
		OnSample: func(now time.Duration) { samples++ },
	}
	s.Start()
	defer s.Stop()
	if r.Len() != 1 || pres != 1 || samples != 1 {
		t.Fatalf("Start should sample once immediately: len=%d pres=%d samples=%d", r.Len(), pres, samples)
	}
	clock = time.Second
	s.Sample()
	if v, ok := r.Last("g"); !ok || v != 7 {
		t.Fatalf("Last(g) = %v,%v", v, ok)
	}
	s.Stop()
	s.Stop() // idempotent
}
