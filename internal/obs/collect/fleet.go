package collect

import (
	"fmt"
	"strings"
	"time"

	"stellar/internal/obs/slo"
)

// The live fleet table: one row per node, derived from a scrape pass.
// This is the §7 operator's view — is the quorum healthy, is every node
// closing at cadence, which link is shedding, and what each node's own SLO
// engine (internal/obs/slo) judges firing.

// NodeStatus is one node's row.
type NodeStatus struct {
	Name string
	URL  string
	Err  string

	LedgerSeq uint32
	// CloseLagSeconds is how far behind the node's last close time sits
	// against the collector's (offset-corrected) clock.
	CloseLagSeconds float64
	// TxPerSecond is the applied-transaction rate; it needs two passes
	// (watch mode) and is negative when unknown.
	TxPerSecond   float64
	TxApplied     float64
	PendingTxs    float64
	Peers         float64
	QuorumAvail   bool
	SpansRecorded float64
	SpansDropped  float64
	OffsetMillis  float64
	// Alerts is the node's own SLO verdict (GET /debug/alerts); nil when
	// it could not be read, AlertsErr saying why.
	Alerts    *slo.Report
	AlertsErr string
}

// Status derives one node's row from its scrape; prev (same node, earlier
// pass) enables rates and may be nil.
func Status(s *Scrape, prev *Scrape) NodeStatus {
	st := NodeStatus{Name: s.Name(), URL: s.Target.URL, TxPerSecond: -1}
	if s.Err != nil {
		st.Err = s.Err.Error()
		return st
	}
	m := s.Metrics
	st.TxApplied = m.Sum("herder_tx_per_ledger_sum")
	st.PendingTxs = m.Sum("mempool_size")
	st.Peers = m.Sum("transport_peers")
	st.QuorumAvail = m.Sum("quorum_available") > 0
	st.SpansRecorded = m.Sum("trace_spans_recorded")
	st.SpansDropped = m.Sum("trace_spans_dropped")
	st.OffsetMillis = float64(s.OffsetNanos) / 1e6
	st.Alerts = s.Alerts
	if s.AlertsErr != nil {
		st.AlertsErr = s.AlertsErr.Error()
	}
	if s.Ledger != nil {
		st.LedgerSeq = s.Ledger.Sequence
		// The node's close time is on its own clock; compare in that frame.
		nodeNow := s.FetchedAt.UnixNano() + s.OffsetNanos
		st.CloseLagSeconds = float64(nodeNow)/1e9 - float64(s.Ledger.CloseTime)
	}
	if prev != nil && prev.Err == nil && prev.Metrics != nil {
		dt := s.FetchedAt.Sub(prev.FetchedAt).Seconds()
		if dt > 0 {
			st.TxPerSecond = (st.TxApplied - prev.Metrics.Sum("herder_tx_per_ledger_sum")) / dt
		}
	}
	return st
}

// alertsCell compresses a node's alert report into its row's last cell:
// "?" when the report could not be read, "off" when alerting is disabled.
func alertsCell(rep *slo.Report) string {
	switch {
	case rep == nil:
		return "?"
	case !rep.Enabled:
		return "off"
	case rep.Firing > 0:
		return fmt.Sprintf("FIRING %d, pending %d", rep.Firing, rep.Pending)
	case rep.Pending > 0:
		return fmt.Sprintf("pending %d", rep.Pending)
	}
	return "ok"
}

// FleetTable renders the rows as a fixed-width text table, each node's
// firing and pending alerts listed under its row.
func FleetTable(rows []NodeStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %9s %8s %7s %6s %6s %7s %9s %9s %s\n",
		"NODE", "LEDGER", "CLOSELAG", "TX/S", "APPLIED", "PEND", "PEERS", "QUORUM", "SPANS", "OFFSET", "ALERTS")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-12s DOWN: %s\n", r.Name, r.Err)
			continue
		}
		txps := "-"
		if r.TxPerSecond >= 0 {
			txps = fmt.Sprintf("%.1f", r.TxPerSecond)
		}
		quorum := "avail"
		if !r.QuorumAvail {
			quorum = "AT-RISK"
		}
		spans := fmt.Sprintf("%.0f", r.SpansRecorded)
		if r.SpansDropped > 0 {
			spans += fmt.Sprintf("(-%.0f)", r.SpansDropped)
		}
		fmt.Fprintf(&b, "%-12s %7d %8.1fs %8s %7.0f %6.0f %6.0f %7s %9s %8.1fms %s\n",
			r.Name, r.LedgerSeq, r.CloseLagSeconds, txps, r.TxApplied,
			r.PendingTxs, r.Peers, quorum, spans, r.OffsetMillis, alertsCell(r.Alerts))
		if r.Alerts == nil {
			fmt.Fprintf(&b, "  alerts unreadable: %s\n", r.AlertsErr)
			continue
		}
		for _, a := range r.Alerts.Alerts {
			if a.State != slo.StateFiring.String() && a.State != slo.StatePending.String() {
				continue
			}
			detail := a.Detail
			if detail != "" {
				detail = " — " + detail
			}
			fmt.Fprintf(&b, "  %-20s %-8s %-8s%s\n", a.Name, a.State, a.Severity, detail)
		}
	}
	return b.String()
}

// Firing counts the alerts firing across the rows, a DOWN node or one whose
// alert report cannot be read counting as one: a node that cannot say it
// is healthy is the degradation a fleet sweep is for.
func Firing(rows []NodeStatus) int {
	n := 0
	for _, r := range rows {
		switch {
		case r.Err != "", r.Alerts == nil:
			n++
		default:
			n += r.Alerts.Firing
		}
	}
	return n
}

// Watch scrapes the targets every interval and hands each pass's rows to
// emit, until passes are exhausted (0 = forever). It is the engine behind
// `stellar-obs fleet`; one pass is the one-shot table.
func Watch(c *Client, targets []Target, interval time.Duration, passes int, emit func([]NodeStatus)) {
	var prev []*Scrape
	for i := 0; passes == 0 || i < passes; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur := c.ScrapeAll(targets)
		rows := make([]NodeStatus, len(cur))
		for j, s := range cur {
			var p *Scrape
			if prev != nil {
				p = prev[j]
			}
			rows[j] = Status(s, p)
		}
		emit(rows)
		prev = cur
	}
}
