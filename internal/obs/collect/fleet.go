package collect

import (
	"fmt"
	"strings"
	"time"

	"stellar/internal/obs/slo"
)

// The live fleet table: one row per node, derived from a scrape pass.
// This is the §7 operator's view — is the quorum healthy, is every node
// closing at cadence, which link is shedding.

// NodeStatus is one node's row.
type NodeStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Err  string `json:"error,omitempty"`

	LedgerSeq uint32 `json:"ledger_seq"`
	// CloseLagSeconds is how far behind the node's last close time sits
	// against the collector's (offset-corrected) clock.
	CloseLagSeconds float64 `json:"close_lag_seconds"`
	LedgersClosed   float64 `json:"ledgers_closed"`
	// TxPerSecond is the applied-transaction rate; it needs two passes
	// (watch mode) and is negative when unknown.
	TxPerSecond   float64 `json:"tx_per_second"`
	TxApplied     float64 `json:"tx_applied"`
	PendingTxs    float64 `json:"pending_txs"`
	Peers         float64 `json:"peers"`
	QuorumAvail   bool    `json:"quorum_available"`
	SpansRecorded float64 `json:"trace_spans_recorded"`
	SpansDropped  float64 `json:"trace_spans_dropped"`
	OffsetMillis  float64 `json:"clock_offset_ms"`
	// Alerts summarizes the node's own SLO verdict: "?" when the node
	// serves no /debug/alerts, "off" when alerting is disabled, "ok" when
	// nothing fires, else the firing alert names.
	Alerts string `json:"alerts"`
}

// alertsSummary compresses a node's alert report into one table cell.
func alertsSummary(rep *slo.Report) string {
	switch {
	case rep == nil:
		return "?"
	case !rep.Enabled:
		return "off"
	case rep.Firing == 0:
		return "ok"
	}
	var names []string
	for _, a := range rep.Alerts {
		if a.State == slo.StateFiring.String() {
			names = append(names, a.Name)
		}
	}
	return strings.Join(names, ",")
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
	st.LedgersClosed = m.Sum("herder_ledgers_closed_total")
	st.TxApplied = m.Sum("herder_tx_per_ledger_sum")
	st.PendingTxs = m.Sum("mempool_size")
	st.Peers = m.Sum("transport_peers")
	st.QuorumAvail = m.Sum("quorum_available") > 0
	st.SpansRecorded = m.Sum("trace_spans_recorded")
	st.SpansDropped = m.Sum("trace_spans_dropped")
	st.OffsetMillis = float64(s.OffsetNanos) / 1e6
	st.Alerts = alertsSummary(s.Alerts)
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

// FleetTable renders the rows as a fixed-width text table.
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
			r.PendingTxs, r.Peers, quorum, spans, r.OffsetMillis, r.Alerts)
	}
	return b.String()
}

// Watch scrapes the targets every interval and renders a table per pass
// through emit, until passes are exhausted (0 = forever). It is the
// engine behind `stellar-obs table -watch`.
func Watch(c *Client, targets []Target, interval time.Duration, passes int, emit func(string)) {
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
		emit(FleetTable(rows))
		prev = cur
	}
}
