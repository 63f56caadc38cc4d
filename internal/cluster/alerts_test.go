//go:build smoke && linux

package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"stellar/internal/herder"
	"stellar/internal/obs/collect"
	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
)

// alerts returns nd's alert report from a fleet scrape, nil when the node
// did not answer.
func alerts(c *Cluster, nd *Node) *slo.Report {
	s := c.Collect.ScrapeAll([]collect.Target{nd.Target()})[0]
	if s.Err != nil {
		return nil
	}
	return s.Alerts
}

// alertState returns the named alert's state on nd ("firing", "resolved",
// ...), or "" when the node did not answer.
func alertState(c *Cluster, nd *Node, name string) string {
	rep := alerts(c, nd)
	if rep == nil {
		return ""
	}
	for _, a := range rep.Alerts {
		if a.Name == name {
			return a.State
		}
	}
	return ""
}

// waitFor polls cond every half second until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(500 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestWedgedQuorumFiresAlertsAndResolves: with the detection stack sampling
// once per 250 ms ledger interval, SIGSTOP freezes two of three validators. Their sockets stay open,
// so only the liveness rules can see it: close_stall and then
// quorum_unavailable must fire on the survivor, its watchdog must dump a
// crash bundle that names the stalled slot, and after SIGCONT every alert
// on every node must resolve.
func TestWedgedQuorumFiresAlertsAndResolves(t *testing.T) {
	c := boot(t, Config{Validators: 3, Args: func(int) []string {
		return []string{"-bundle-dir", "bundles"}
	}})
	if err := c.WaitLedger(3, bootTimeout); err != nil {
		t.Fatal(err)
	}
	// A few evaluation windows on a healthy quorum must fire nothing.
	time.Sleep(3 * time.Second)
	for _, s := range c.Collect.ScrapeAll(c.Targets()) {
		if s.Err != nil {
			t.Fatalf("%s: %v", s.Name(), s.Err)
		}
		if s.Alerts == nil || !s.Alerts.Enabled || s.Alerts.Firing != 0 {
			t.Fatalf("%s on a healthy quorum: alerts %+v", s.Name(), s.Alerts)
		}
	}

	survivor := c.Nodes[0]
	for _, nd := range c.Nodes[1:] {
		if err := nd.Signal(syscall.SIGSTOP); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"close_stall", "quorum_unavailable"} {
		if !waitFor(bootTimeout, func() bool { return alertState(c, survivor, name) == "firing" }) {
			t.Fatalf("%s never fired on %s", name, survivor.Label)
		}
	}

	bundles, _ := filepath.Glob(filepath.Join(survivor.Dir, "bundles", "bundle-node-0-close-stall-*"))
	if len(bundles) == 0 {
		t.Fatal("no crash bundle from node-0's close-stall watchdog")
	}
	checkBundle(t, bundles[0])

	for _, nd := range c.Nodes[1:] {
		if err := nd.Signal(syscall.SIGCONT); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range c.Nodes {
		healed := waitFor(bootTimeout, func() bool {
			rep := alerts(c, nd)
			return rep != nil && rep.Firing == 0
		})
		if !healed {
			t.Fatalf("%s still firing after the thaw", nd.Label)
		}
	}
	if s := alertState(c, survivor, "close_stall"); s != "resolved" {
		t.Errorf("close_stall on node-0 is %q after the thaw, want resolved", s)
	}
	var rows []collect.NodeStatus
	for _, s := range c.Collect.ScrapeAll(c.Targets()) {
		rows = append(rows, collect.Status(s, nil))
	}
	if collect.Firing(rows) > 0 {
		t.Errorf("fleet sweep after the thaw:\n%s", collect.FleetTable(rows))
	}
}

// checkBundle requires the bundle to hold goroutine stacks, a time-series
// window with the close counter, an alerts snapshot with something firing,
// and slot records whose newest is an open slot: nominated, not
// externalized.
func checkBundle(t *testing.T, dir string) {
	t.Helper()
	read := func(name string, v any) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || len(data) == 0 {
			t.Fatalf("crash bundle lacks %s: %v", name, err)
		}
		if v != nil {
			if err := json.Unmarshal(data, v); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		} else if name == "stacks.txt" && !strings.Contains(string(data), "goroutine") {
			t.Fatal("stacks.txt holds no goroutine dump")
		}
	}
	var ts timeseries.Export
	var alerts slo.Report
	var slots []herder.SlotRecord
	read("stacks.txt", nil)
	read("meta.json", nil)
	read("timeseries.json", &ts)
	read("alerts.json", &alerts)
	read("slots.json", &slots)
	if ts.Schema != timeseries.ExportSchema || len(ts.Samples) == 0 {
		t.Fatalf("timeseries.json: schema %q, %d samples", ts.Schema, len(ts.Samples))
	}
	if _, ok := ts.Samples[len(ts.Samples)-1].Points["herder_ledgers_closed_total"]; !ok {
		t.Error("time-series window lacks the close counter")
	}
	if !alerts.Enabled || alerts.Firing < 1 {
		t.Errorf("alerts.json at dump time: enabled %v, %d firing", alerts.Enabled, alerts.Firing)
	}
	if len(slots) == 0 {
		t.Fatal("slots.json holds no record")
	}
	open := slots[len(slots)-1]
	if !open.NominationStart.Seen || open.Externalized.Seen {
		t.Errorf("newest slot record %+v: want nomination started and no externalize", open)
	}
}
