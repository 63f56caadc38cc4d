package collect

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stellar/internal/obs"
	"stellar/internal/obs/slo"
)

const firingReport = `{
  "schema": "stellar-alerts/v1", "node": "node-0", "enabled": true,
  "now_ns": 12000000000, "firing": 1, "pending": 1,
  "alerts": [
    {"name": "close_stall", "severity": "critical", "state": "firing",
     "since_ns": 9000000000, "value": 21, "threshold": 20,
     "detail": "no ledger closed in 21s", "fired_count": 1},
    {"name": "mempool_saturated", "severity": "warning", "state": "pending",
     "since_ns": 11000000000, "value": 0.95, "threshold": 0.9, "fired_count": 0},
    {"name": "peer_loss", "severity": "warning", "state": "resolved",
     "since_ns": 0, "fired_count": 1}
  ]
}`

// nodeServer serves the endpoints a fleet scrape reads, with the given
// /debug/alerts document.
func nodeServer(t *testing.T, alerts string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/debug/trace/export":
			_ = json.NewEncoder(w).Encode(&obs.Export{Schema: obs.ExportSchema, Node: "node-0"})
		case "/metrics":
			fmt.Fprint(w, "herder_ledgers_closed_total 9\nquorum_available 1\n")
		case "/ledgers/latest":
			fmt.Fprint(w, `{"sequence": 10, "close_time": 1}`)
		case "/debug/alerts":
			fmt.Fprint(w, alerts)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestScrapeReadsAlerts(t *testing.T) {
	good := nodeServer(t, firingReport)
	bogus := nodeServer(t, `{"schema": "bogus/v9", "enabled": true, "alerts": []}`)
	scrapes := NewClient(time.Second).ScrapeAll([]Target{{URL: good.URL}, {URL: bogus.URL}})
	for _, s := range scrapes {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
	}
	rep := scrapes[0].Alerts
	if rep == nil || !rep.Enabled || rep.Firing != 1 || rep.Node != "node-0" || len(rep.Alerts) != 3 {
		t.Fatalf("alerts %+v", rep)
	}
	if scrapes[1].Alerts != nil || scrapes[1].AlertsErr == nil {
		t.Fatalf("a report of unknown schema was accepted: %+v", scrapes[1].Alerts)
	}
	if n := Firing([]NodeStatus{Status(scrapes[0], nil), Status(scrapes[1], nil)}); n != 2 {
		t.Fatalf("Firing = %d, want 2: one firing alert and one unreadable report", n)
	}
}

func TestStatusAndFleetTable(t *testing.T) {
	s := syntheticScrapes()[0]
	s.Metrics = Metrics{
		"herder_ledgers_closed_total": 9,
		"herder_tx_per_ledger_sum":    120,
		"transport_peers":             2,
		"quorum_available":            1,
		"trace_spans_dropped":         0,
	}
	s.Ledger = &LedgerInfo{Sequence: 10, CloseTime: s.FetchedAt.Unix() - 1}
	if err := json.Unmarshal([]byte(firingReport), &s.Alerts); err != nil {
		t.Fatal(err)
	}
	st := Status(s, nil)
	if st.LedgerSeq != 10 || st.Peers != 2 || !st.QuorumAvail || st.Alerts != s.Alerts {
		t.Fatalf("status %+v", st)
	}
	if st.TxPerSecond >= 0 {
		t.Error("tx/s must be unknown with no previous pass")
	}
	rows := []NodeStatus{
		st,
		{Name: "node-x", Err: "connection refused"},
		{Name: "node-off", Alerts: slo.DisabledReport("node-off")},
		{Name: "node-ok", Alerts: &slo.Report{Enabled: true}},
		{Name: "node-old", AlertsErr: "404 Not Found"}, // serves no /debug/alerts
	}
	table := FleetTable(rows)
	for _, want := range []string{
		"node-a", "FIRING 1, pending 1",
		"close_stall          firing   critical — no ledger closed in 21s",
		"mempool_saturated    pending  warning",
		"DOWN: connection refused",
		" off\n", " ok\n", " ?\n", "alerts unreadable: 404 Not Found",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "peer_loss") {
		t.Errorf("a resolved alert is listed:\n%s", table)
	}
	// 1 firing on node-a, plus the DOWN node and node-old's unreadable
	// report each counted as a degradation.
	if n := Firing(rows); n != 3 {
		t.Fatalf("Firing = %d, want 3\n%s", n, table)
	}
}
