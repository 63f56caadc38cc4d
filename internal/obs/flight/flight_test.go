package flight

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stellar/internal/obs"
	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
)

func readJSON(t *testing.T, dir, name string, v any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
}

func TestDumpFullBundle(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("herder_ledgers_closed_total", "ledgers closed").Add(3)
	ring := timeseries.New(16)
	ring.Observe(time.Second, reg.Snapshot())

	var clock time.Duration
	tracer := obs.NewTracer(func() time.Duration { return clock })
	sp := tracer.Proc("node-0").Span("test", "test-span")
	clock = time.Second
	sp.End()

	type slot struct {
		Slot uint64 `json:"slot"`
	}
	slots := func() any { return []slot{{Slot: 7}} }

	engine := slo.NewEngine(ring, slo.DefaultRules(slo.Config{LedgerInterval: time.Second}), reg, nil)
	engine.Evaluate(time.Second)

	r := New(Config{
		Dir: t.TempDir(), Node: "node-0",
		Ring: ring, Tracer: tracer, Slots: slots, Alerts: engine,
		Clock: func() time.Duration { return 2 * time.Second },
	})
	dir, err := r.Dump("test")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if !strings.Contains(filepath.Base(dir), "bundle-node-0-test-") {
		t.Fatalf("bundle dir name %q", dir)
	}

	stacks, err := os.ReadFile(filepath.Join(dir, "stacks.txt"))
	if err != nil || !strings.Contains(string(stacks), "goroutine") {
		t.Fatalf("stacks.txt: err=%v len=%d", err, len(stacks))
	}

	var ts timeseries.Export
	readJSON(t, dir, "timeseries.json", &ts)
	if ts.Schema != timeseries.ExportSchema || len(ts.Samples) != 1 {
		t.Fatalf("timeseries export: %+v", ts)
	}
	if ts.Samples[0].Points["herder_ledgers_closed_total"].Value != 3 {
		t.Fatal("time-series sample missing the counter")
	}

	var spans obs.Export
	readJSON(t, dir, "spans.json", &spans)
	if spans.Node != "node-0" || len(spans.Spans) == 0 {
		t.Fatalf("spans export: node=%q spans=%d", spans.Node, len(spans.Spans))
	}

	var recs []slot
	readJSON(t, dir, "slots.json", &recs)
	if len(recs) != 1 || recs[0].Slot != 7 {
		t.Fatalf("slot records: %+v", recs)
	}

	var rep slo.Report
	readJSON(t, dir, "alerts.json", &rep)
	if !rep.Enabled || len(rep.Alerts) == 0 {
		t.Fatalf("alerts report: %+v", rep)
	}

	var meta Meta
	readJSON(t, dir, "meta.json", &meta)
	if meta.Schema != MetaSchema || meta.Reason != "test" || meta.NowNano != (2*time.Second).Nanoseconds() {
		t.Fatalf("meta: %+v", meta)
	}
	for _, want := range []string{"stacks.txt", "timeseries.json", "spans.json", "slots.json", "alerts.json"} {
		found := false
		for _, f := range meta.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("meta.Files missing %s: %v", want, meta.Files)
		}
	}
}

func TestDumpNilSources(t *testing.T) {
	r := New(Config{Dir: t.TempDir(), Node: "bare"})
	dir, err := r.Dump("sigquit")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	// Stacks and the disabled alerts report are always present.
	if _, err := os.Stat(filepath.Join(dir, "stacks.txt")); err != nil {
		t.Fatalf("stacks.txt: %v", err)
	}
	var rep slo.Report
	readJSON(t, dir, "alerts.json", &rep)
	if rep.Enabled {
		t.Fatal("bare node alerts.json must be enabled=false")
	}
	if _, err := os.Stat(filepath.Join(dir, "timeseries.json")); !os.IsNotExist(err) {
		t.Fatal("nil ring must omit timeseries.json")
	}
}

func TestAutoDumpCooldown(t *testing.T) {
	r := New(Config{Dir: t.TempDir(), Node: "n", Cooldown: 10 * time.Second})
	if _, ok := r.AutoDump("stall", 0); !ok {
		t.Fatal("first AutoDump should dump")
	}
	if _, ok := r.AutoDump("stall", 5*time.Second); ok {
		t.Fatal("AutoDump inside cooldown must be suppressed")
	}
	if _, ok := r.AutoDump("stall", 15*time.Second); !ok {
		t.Fatal("AutoDump past cooldown should dump")
	}
}
