// Package obs is the runtime observability layer: a goroutine-safe metric
// registry with Prometheus text exposition, a bounded ring buffer of
// structured SCP protocol events (the per-slot timeline behind the paper's
// Fig 2 and §7.3 latency breakdown), and slog-based component loggers.
// It is stdlib-only so every layer of the stack can depend on it.
//
// Ownership rule: a Registry and its instruments are safe for concurrent
// use from any goroutine. Hot-path writers (herder, overlay, scp driver
// callbacks) record through instruments they resolved once at wiring time;
// readers (horizon handlers, experiment summaries) use Snapshot or
// WritePrometheus, which copy under the registry locks and never expose
// internal state.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// MetricKind distinguishes the instrument types a family can hold.
type MetricKind int

// Instrument kinds, matching the Prometheus metric types emitted by
// WritePrometheus.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE-line vocabulary.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// Registry holds metric families keyed by name. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	hooks    []func()
}

// family is one named metric: its metadata plus a child per label-value
// combination (a single unlabeled child when labelNames is empty).
type family struct {
	name       string
	help       string
	kind       MetricKind
	labelNames []string
	buckets    []float64 // histogram upper bounds, ascending; +Inf implicit

	mu       sync.Mutex
	children map[string]*metric
}

// metric is one time series: a (family, label values) pair.
type metric struct {
	fam         *family
	labelValues []string

	mu    sync.Mutex
	value float64  // counter / gauge
	sum   float64  // histogram
	count uint64   // histogram
	cnts  []uint64 // histogram per-bucket counts (len(buckets)+1, last = +Inf)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind MetricKind, buckets []float64, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different kind or labels", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		children:   make(map[string]*metric),
	}
	r.families[name] = f
	return f
}

// labelKey joins label values into a map key; 0x1f never appears in our
// label values (they are identifiers, routes, and enum names).
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) child(labelValues []string) *metric {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := labelKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[key]
	if !ok {
		m = &metric{fam: f, labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			m.cnts = make([]uint64, len(f.buckets)+1)
		}
		f.children[key] = m
	}
	return m
}

// --- Counter ---

// Counter is a monotonically increasing value.
type Counter struct{ m *metric }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{m: r.family(name, help, KindCounter, nil, nil).child(nil)}
}

// CounterVec registers (or finds) a counter family with labels.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, nil, labelNames)}
}

// With resolves the child counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{m: v.f.child(labelValues)}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.m.mu.Lock()
	c.m.value += delta
	c.m.mu.Unlock()
}

// Value reads the current count.
func (c *Counter) Value() float64 {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	return c.m.value
}

// --- Gauge ---

// Gauge is a value that can go up and down.
type Gauge struct{ m *metric }

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{m: r.family(name, help, KindGauge, nil, nil).child(nil)}
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	g.m.mu.Lock()
	g.m.value = v
	g.m.mu.Unlock()
}

// Add shifts the value by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	g.m.mu.Lock()
	g.m.value += delta
	g.m.mu.Unlock()
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	g.m.mu.Lock()
	defer g.m.mu.Unlock()
	return g.m.value
}

// --- Histogram ---

// Histogram counts observations into fixed buckets; memory is bounded by
// the bucket count regardless of observation volume.
type Histogram struct{ m *metric }

// DefBuckets suit sub-second protocol latencies in seconds, covering the
// paper's measured range (~1 ms nomination to multi-second timeouts).
var DefBuckets = []float64{
	.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30,
}

// CountBuckets suit small discrete counts (messages, transactions,
// timeouts per ledger).
var CountBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}

// Histogram registers (or finds) an unlabeled histogram. A nil buckets
// slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &Histogram{m: r.family(name, help, KindHistogram, buckets, nil).child(nil)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	m := h.m
	idx := sort.SearchFloat64s(m.fam.buckets, v) // first bucket with bound ≥ v
	m.mu.Lock()
	m.cnts[idx]++
	m.sum += v
	m.count++
	m.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return h.m.count
}

// --- Snapshot ---

// Sample is one exported time series value.
type Sample struct {
	// LabelNames/LabelValues are parallel; empty for unlabeled metrics.
	LabelNames  []string
	LabelValues []string
	// Value is the counter or gauge value (histograms use the fields
	// below instead).
	Value float64
	// Histogram state: cumulative per-bucket counts aligned with
	// FamilySnapshot.Buckets plus a final +Inf bucket.
	BucketCounts []uint64
	Sum          float64
	Count        uint64
}

// FamilySnapshot is a point-in-time copy of one metric family.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    MetricKind
	Buckets []float64 // histogram upper bounds (exclusive of +Inf)
	Samples []Sample
}

// AddScrapeHook registers fn to run at the start of every Snapshot (and
// hence every WritePrometheus scrape), before any lock is taken for the
// copy. Hooks refresh pull-style gauges (the runtime self-metrics) so
// scraped values are current without a background poller.
func (r *Registry) AddScrapeHook(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// Snapshot copies every family, sorted by name with samples sorted by
// label values, so output is deterministic.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.RUnlock()
	// Outside the lock: hooks typically set gauges on this registry.
	for _, fn := range hooks {
		fn()
	}

	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:    f.name,
			Help:    f.help,
			Kind:    f.kind,
			Buckets: append([]float64(nil), f.buckets...),
		}
		f.mu.Lock()
		children := make([]*metric, 0, len(f.children))
		for _, m := range f.children {
			children = append(children, m)
		}
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool {
			return labelKey(children[i].labelValues) < labelKey(children[j].labelValues)
		})
		for _, m := range children {
			m.mu.Lock()
			s := Sample{
				LabelNames:  f.labelNames,
				LabelValues: append([]string(nil), m.labelValues...),
				Value:       m.value,
				Sum:         m.sum,
				Count:       m.count,
			}
			if f.kind == KindHistogram {
				cum := make([]uint64, len(m.cnts))
				var acc uint64
				for i, c := range m.cnts {
					acc += c
					cum[i] = acc
				}
				s.BucketCounts = cum
			}
			m.mu.Unlock()
			fs.Samples = append(fs.Samples, s)
		}
		out = append(out, fs)
	}
	return out
}

// --- Prometheus text exposition (version 0.0.4) ---

// escapeLabel escapes a label value per the text format rules.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

// escapeHelp escapes a HELP string.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (the format served by stellar-core's /metrics equivalent).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fs := range r.Snapshot() {
		if fs.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fs.Name, escapeHelp(fs.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fs.Name, fs.Kind); err != nil {
			return err
		}
		for _, s := range fs.Samples {
			switch fs.Kind {
			case KindHistogram:
				for i, cum := range s.BucketCounts {
					le := "+Inf"
					if i < len(fs.Buckets) {
						le = formatValue(fs.Buckets[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						fs.Name, labelString(s.LabelNames, s.LabelValues, "le", le), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
					fs.Name, labelString(s.LabelNames, s.LabelValues, "", ""), formatValue(s.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
					fs.Name, labelString(s.LabelNames, s.LabelValues, "", ""), s.Count); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "%s%s %s\n",
					fs.Name, labelString(s.LabelNames, s.LabelValues, "", ""), formatValue(s.Value)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
