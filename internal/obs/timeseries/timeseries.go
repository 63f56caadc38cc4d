// Package timeseries keeps a bounded in-process ring of periodic metric
// registry samples and answers windowed queries over them: counter deltas
// and rates, gauge maxima, and histogram quantiles computed from bucket
// deltas between two points in time. It is the data layer under the SLO
// engine (internal/obs/slo): rules ask "did any ledger close in the last
// 4 intervals?" or "what was the close-interval p99 over the last 30 s?"
// and this package answers from samples it already holds, with no second
// scrape and no unbounded memory.
//
// Like the registry itself the package is stdlib-only and copy-on-read:
// Observe stores label-summed points per family, queries never expose
// internal slices, and everything is safe for concurrent use.
package timeseries

import (
	"math"
	"sync"
	"time"

	"stellar/internal/obs"
)

// Point is one family's value at one sample instant. Labeled families are
// summed over their children — the SLO rules judge node-level totals, and
// summing keeps a sample's size bounded by the family count, not the
// label cardinality.
type Point struct {
	Kind  obs.MetricKind
	Value float64  // counter/gauge: sum over label children
	Sum   float64  // histogram: sum of per-child sums
	Count uint64   // histogram: total observations
	Cum   []uint64 // histogram: cumulative bucket counts incl. +Inf
}

// Sample is one registry snapshot reduced to points, stamped with the
// sampler's clock.
type Sample struct {
	At     time.Duration
	Points map[string]Point
}

// Ring is the bounded sample store. The zero value is not usable;
// construct with New.
type Ring struct {
	mu     sync.Mutex
	buf    []Sample
	head   int // next write position once len(buf) == cap
	bounds map[string][]float64
}

// DefaultCapacity holds ~8.5 minutes of samples at a 1 s cadence — at
// least twice the longest default SLO window, so windowed deltas always
// have a baseline once the process has been up that long.
const DefaultCapacity = 512

// New builds a ring holding at most capacity samples (0 selects
// DefaultCapacity).
func New(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{
		buf:    make([]Sample, 0, capacity),
		bounds: make(map[string][]float64),
	}
}

// Observe reduces one registry snapshot to a sample at time at. Calls
// must carry non-decreasing times (one sampler owns a ring).
func (r *Ring) Observe(at time.Duration, fams []obs.FamilySnapshot) {
	pts := make(map[string]Point, len(fams))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range fams {
		p := Point{Kind: f.Kind}
		if f.Kind == obs.KindHistogram {
			// Size from the family's bucket list, not the first child: a
			// labeled histogram with no children yet must still produce a
			// comparable (all-zero) baseline point.
			p.Cum = make([]uint64, len(f.Buckets)+1)
		}
		for _, s := range f.Samples {
			p.Value += s.Value
			p.Sum += s.Sum
			p.Count += s.Count
			for i, c := range s.BucketCounts {
				if i < len(p.Cum) {
					p.Cum[i] += c
				}
			}
		}
		if f.Kind == obs.KindHistogram {
			if _, ok := r.bounds[f.Name]; !ok {
				r.bounds[f.Name] = append([]float64(nil), f.Buckets...)
			}
		}
		pts[f.Name] = p
	}
	s := Sample{At: at, Points: pts}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
}

// at returns the i-th retained sample in chronological order (0 =
// oldest). Caller holds r.mu.
func (r *Ring) at(i int) *Sample {
	if len(r.buf) < cap(r.buf) {
		return &r.buf[i]
	}
	return &r.buf[(r.head+i)%len(r.buf)]
}

// Len reports how many samples the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Span reports the oldest and newest retained sample times.
func (r *Ring) Span() (oldest, newest time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return 0, 0, false
	}
	return r.at(0).At, r.at(len(r.buf) - 1).At, true
}

// newest returns the latest sample with At <= now, or nil. Caller holds
// r.mu.
func (r *Ring) newest(now time.Duration) *Sample {
	for i := len(r.buf) - 1; i >= 0; i-- {
		if s := r.at(i); s.At <= now {
			return s
		}
	}
	return nil
}

// baseline returns the latest sample with At <= now-window, or nil — the
// comparison point for windowed deltas. Requiring the baseline to sit at
// or before the window edge means a delta never under-covers: if the ring
// has not yet retained a sample that old (process just started, or the
// window outruns the capacity), queries report no data rather than a
// too-small delta that could false-fire a stall alert. Caller holds r.mu.
func (r *Ring) baseline(window, now time.Duration) *Sample {
	edge := now - window
	var base *Sample
	for i := 0; i < len(r.buf); i++ {
		s := r.at(i)
		if s.At > edge {
			break
		}
		base = s
	}
	return base
}

// Last reads the newest value of a counter or gauge family (label
// children summed). ok is false when the ring is empty or the family has
// never been sampled.
func (r *Ring) Last(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return 0, false
	}
	p, ok := r.at(len(r.buf) - 1).Points[name]
	if !ok || p.Kind == obs.KindHistogram {
		return 0, false
	}
	return p.Value, true
}

// Delta reports how much a counter family grew over the window ending at
// now. A drop between two samples is a counter reset — the process behind
// the registry was replaced, and its counters restarted from zero — so the
// value after it counts as growth from zero, as Prometheus's increase()
// reads it. ok is false when the ring lacks a baseline sample at least
// window old — callers must treat that as "unknown", not zero.
func (r *Ring) Delta(name string, window, now time.Duration) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.newest(now)
	base := r.baseline(window, now)
	if cur == nil || base == nil || cur.At <= base.At {
		return 0, false
	}
	bp, ok := base.Points[name]
	if _, ok2 := cur.Points[name]; !ok || !ok2 {
		return 0, false
	}
	grew, prev := 0.0, bp.Value
	for i := 0; i < len(r.buf); i++ {
		s := r.at(i)
		if s.At <= base.At {
			continue
		}
		if s.At > cur.At {
			break
		}
		p, ok := s.Points[name]
		if !ok {
			continue
		}
		if p.Value >= prev {
			grew += p.Value - prev
		} else {
			grew += p.Value
		}
		prev = p.Value
	}
	return grew, true
}

// Rate is Delta divided by the window in seconds.
func (r *Ring) Rate(name string, window, now time.Duration) (float64, bool) {
	d, ok := r.Delta(name, window, now)
	if !ok || window <= 0 {
		return 0, false
	}
	return d / window.Seconds(), true
}

// Max reports the maximum value a counter or gauge family reached across
// the samples inside the window ending at now.
func (r *Ring) Max(name string, window, now time.Duration) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	edge := now - window
	max, found := 0.0, false
	for i := 0; i < len(r.buf); i++ {
		s := r.at(i)
		if s.At <= edge || s.At > now {
			continue
		}
		p, ok := s.Points[name]
		if !ok || p.Kind == obs.KindHistogram {
			continue
		}
		if !found || p.Value > max {
			max, found = p.Value, true
		}
	}
	return max, found
}

// HistWindow is the observations a histogram family collected inside one
// window: bucket-count deltas between the window's edge samples.
type HistWindow struct {
	Bounds []float64 // upper bounds, ascending, +Inf implicit
	Cum    []uint64  // cumulative in-window counts, len(Bounds)+1
	Count  uint64
	Sum    float64
}

// Window extracts a histogram family's in-window observations. ok is
// false without a baseline sample at least window old (same coverage rule
// as Delta).
func (r *Ring) Window(name string, window, now time.Duration) (HistWindow, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.newest(now)
	base := r.baseline(window, now)
	if cur == nil || base == nil || cur.At <= base.At {
		return HistWindow{}, false
	}
	cp, ok1 := cur.Points[name]
	bp, ok2 := base.Points[name]
	if !ok1 || !ok2 || cp.Kind != obs.KindHistogram || len(cp.Cum) != len(bp.Cum) {
		return HistWindow{}, false
	}
	w := HistWindow{
		Bounds: append([]float64(nil), r.bounds[name]...),
		Cum:    make([]uint64, len(cp.Cum)),
		Count:  cp.Count - bp.Count,
		Sum:    cp.Sum - bp.Sum,
	}
	for i := range cp.Cum {
		w.Cum[i] = cp.Cum[i] - bp.Cum[i]
	}
	return w, true
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) of the window's
// observations with Prometheus-style linear interpolation inside the
// containing bucket. Observations in the +Inf bucket report the highest
// finite bound (the conventional clamp). ok is false when the window holds
// no observations.
func (w HistWindow) Quantile(q float64) (float64, bool) {
	if w.Count == 0 || len(w.Cum) == 0 {
		return 0, false
	}
	rank := q * float64(w.Count)
	for i, c := range w.Cum {
		if float64(c) < rank {
			continue
		}
		if i >= len(w.Bounds) { // +Inf bucket
			if len(w.Bounds) == 0 {
				return math.Inf(1), true
			}
			return w.Bounds[len(w.Bounds)-1], true
		}
		lower, prev := 0.0, uint64(0)
		if i > 0 {
			lower, prev = w.Bounds[i-1], w.Cum[i-1]
		}
		in := c - prev
		if in == 0 {
			return w.Bounds[i], true
		}
		return lower + (w.Bounds[i]-lower)*(rank-float64(prev))/float64(in), true
	}
	return w.Bounds[len(w.Bounds)-1], true
}

// ExportSchema versions the crash-bundle time-series document.
const ExportSchema = "stellar-timeseries/v1"

// ExportPoint is one family's value in the export document.
type ExportPoint struct {
	Kind    string   `json:"kind"`
	Value   float64  `json:"value,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// ExportSample is one sample in the export document.
type ExportSample struct {
	AtNanos int64                  `json:"at_ns"`
	Points  map[string]ExportPoint `json:"points"`
}

// Export is the flight-recorder dump of the ring's recent window.
type Export struct {
	Schema  string               `json:"schema"`
	NowNano int64                `json:"now_ns"`
	Bounds  map[string][]float64 `json:"bounds,omitempty"`
	Samples []ExportSample       `json:"samples"`
}

// Export copies the samples inside the window ending at now into the
// crash-bundle document (window ≤ 0 exports everything retained).
func (r *Ring) Export(window, now time.Duration) *Export {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Export{
		Schema:  ExportSchema,
		NowNano: now.Nanoseconds(),
		Bounds:  make(map[string][]float64, len(r.bounds)),
		Samples: []ExportSample{},
	}
	for name, b := range r.bounds {
		out.Bounds[name] = append([]float64(nil), b...)
	}
	edge := now - window
	for i := 0; i < len(r.buf); i++ {
		s := r.at(i)
		if window > 0 && (s.At <= edge || s.At > now) {
			continue
		}
		es := ExportSample{AtNanos: s.At.Nanoseconds(), Points: make(map[string]ExportPoint, len(s.Points))}
		for name, p := range s.Points {
			es.Points[name] = ExportPoint{
				Kind:    p.Kind.String(),
				Value:   p.Value,
				Sum:     p.Sum,
				Count:   p.Count,
				Buckets: append([]uint64(nil), p.Cum...),
			}
		}
		out.Samples = append(out.Samples, es)
	}
	return out
}
