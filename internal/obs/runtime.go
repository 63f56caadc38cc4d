package obs

import (
	"math"
	"runtime/metrics"
)

// Runtime self-metrics: process-level health (heap, GC) read
// from runtime/metrics and refreshed lazily on every scrape via a
// registry hook — no background poller, no samples while nobody looks.

// runtimeSamples are the runtime/metrics series we export. Names are
// stable across Go versions per the runtime/metrics compatibility policy.
const (
	rmHeapBytes = "/memory/classes/heap/objects:bytes"
	rmGCPauses  = "/gc/pauses:seconds"
	rmGCCycles  = "/gc/cycles/total:gc-cycles"
)

// RegisterRuntimeMetrics wires heap and GC gauges into the registry,
// refreshed on each scrape.
func RegisterRuntimeMetrics(reg *Registry) {
	heap := reg.Gauge("go_heap_objects_bytes",
		"bytes of live heap memory occupied by objects")
	gcCycles := reg.Gauge("go_gc_cycles_total",
		"completed GC cycles since process start")
	gcPauseSeconds := reg.Gauge("go_gc_pause_seconds_total",
		"approximate cumulative stop-the-world GC pause time")

	samples := []metrics.Sample{
		{Name: rmHeapBytes},
		{Name: rmGCPauses},
		{Name: rmGCCycles},
	}
	reg.AddScrapeHook(func() {
		metrics.Read(samples)
		for _, s := range samples {
			switch s.Name {
			case rmHeapBytes:
				if s.Value.Kind() == metrics.KindUint64 {
					heap.Set(float64(s.Value.Uint64()))
				}
			case rmGCCycles:
				if s.Value.Kind() == metrics.KindUint64 {
					gcCycles.Set(float64(s.Value.Uint64()))
				}
			case rmGCPauses:
				if s.Value.Kind() == metrics.KindFloat64Histogram {
					gcPauseSeconds.Set(pauseTotal(s.Value.Float64Histogram()))
				}
			}
		}
	})
}

// pauseTotal folds a runtime Float64Histogram into an approximate total
// (each pause counted at its bucket midpoint; unbounded edge buckets fall
// back to their finite side).
func pauseTotal(h *metrics.Float64Histogram) (total float64) {
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			mid = 0
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		total += mid * float64(n)
	}
	return total
}
