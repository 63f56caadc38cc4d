package obs

import (
	"runtime"
	"testing"
)

func TestRuntimeMetricsRefreshOnScrape(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	runtime.GC() // make sure at least one GC cycle exists

	byName := map[string]FamilySnapshot{}
	for _, fs := range reg.Snapshot() {
		byName[fs.Name] = fs
	}
	heap, ok := byName["go_heap_objects_bytes"]
	if !ok {
		t.Fatal("go_heap_objects_bytes not registered")
	}
	if v := heap.Samples[0].Value; v <= 0 {
		t.Fatalf("heap bytes = %v, want > 0", v)
	}
	cycles := byName["go_gc_cycles_total"]
	if v := cycles.Samples[0].Value; v < 1 {
		t.Fatalf("gc cycles = %v, want >= 1 after runtime.GC()", v)
	}
	if _, ok := byName["go_gc_pause_seconds_total"]; !ok {
		t.Fatal("go_gc_pause_seconds_total not registered")
	}
}

func TestScrapeHookRunsEveryScrape(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	g := reg.Gauge("hooked", "")
	reg.AddScrapeHook(func() {
		calls++
		g.Set(float64(calls))
	})
	reg.Snapshot()
	snaps := reg.Snapshot()
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2", calls)
	}
	for _, fs := range snaps {
		if fs.Name == "hooked" && fs.Samples[0].Value != 2 {
			t.Fatalf("hooked gauge = %v, want 2", fs.Samples[0].Value)
		}
	}
}
