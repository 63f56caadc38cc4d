package horizon

import (
	"net/http"
	"testing"
	"time"

	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
)

func TestDebugAlertsDisabled(t *testing.T) {
	f := newFixture(t)
	var rep slo.Report
	if code := f.get("/debug/alerts", &rep); code != http.StatusOK {
		t.Fatalf("GET /debug/alerts = %d, want 200 even without an engine", code)
	}
	if rep.Enabled || rep.Schema != slo.ReportSchema {
		t.Fatalf("disabled report: %+v", rep)
	}
	if rep.Alerts == nil {
		t.Fatal("alerts must be an empty array, not null")
	}
}

func TestDebugAlertsWired(t *testing.T) {
	f := newFixture(t)
	ring := timeseries.New(64)
	rules := slo.DefaultRules(slo.Config{LedgerInterval: time.Second})
	engine := slo.NewEngine(ring, rules, nil)

	// Sample the live registry on the node's virtual clock and evaluate.
	f.srv.Mu.Lock()
	now := f.net.Now()
	ring.Observe(now, f.node.Obs().Reg.Snapshot())
	f.srv.Mu.Unlock()
	engine.Evaluate(now)

	f.srv.SetAlerts(engine, "test-node", func() time.Duration { return now })
	var rep slo.Report
	if code := f.get("/debug/alerts", &rep); code != http.StatusOK {
		t.Fatalf("GET /debug/alerts = %d", code)
	}
	if !rep.Enabled || rep.Node != "test-node" || rep.NowNano != now.Nanoseconds() {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Alerts) != len(rules) {
		t.Fatalf("alerts = %d rows, want %d", len(rep.Alerts), len(rules))
	}
	// A healthy just-bootstrapped node fires nothing.
	if rep.Firing != 0 {
		t.Fatalf("healthy node firing %d alerts: %+v", rep.Firing, rep.Alerts)
	}
	names := map[string]bool{}
	for _, a := range rep.Alerts {
		names[a.Name] = true
	}
	if !names[slo.RuleCloseStall] || !names[slo.RuleQuorumUnavailable] {
		t.Fatalf("rule table missing canonical rules: %v", names)
	}
}
