package main

import (
	"fmt"
	"sort"
	"time"
)

// result is what one run of one workload reports.
type result struct {
	Workload      workload           `json:"workload"`
	Seed          int64              `json:"seed"`
	WindowSeconds float64            `json:"window_seconds"` // as measured: whole ledgers
	Correct       bool               `json:"correct"`
	Violations    []string           `json:"violations,omitempty"`
	Invalid       string             `json:"invalid,omitempty"` // why the window's latencies describe the generator, not the system
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Metrics       map[string]float64 `json:"metrics"`
	Counts        map[string]int     `json:"counts"` // samples behind a metric
	Nodes         []nodeInfo         `json:"nodes"`
	// Closes is every ledger the poller saw from the start of the load
	// phase: the stalls stay visible here, unfiltered.
	Closes []closeRow `json:"closes"`
}

// nodeInfo is how one node process was started.
type nodeInfo struct {
	Argv []string `json:"argv"`
	CPU  int      `json:"cpu"`
}

// closeRow is one observed ledger close.
type closeRow struct {
	Seq      uint32  `json:"seq"`
	GapMs    float64 `json:"gap_ms"` // since the previous close seen
	Txs      int     `json:"txs"`
	InWindow bool    `json:"in_window"`
}

// unmeasured stands in for a per-layer metric the node's registry could not
// supply in this run.
const unmeasured = -1

// wrapped reports a counter that has absorbed a negative uint64 difference.
func wrapped(v float64) bool { return v >= 1<<63 }

// firstSeen returns when the poller first saw a ledger at or past seq:
// the moment a transaction in ledger seq became visible to a client.
func firstSeen(closes []closeObs, seq uint32) (time.Time, bool) {
	i := sort.Search(len(closes), func(i int) bool { return closes[i].Seq >= seq })
	if i == len(closes) {
		return time.Time{}, false
	}
	return closes[i].At, true
}

// evaluate turns a finished run into metrics. It needs the nodes stopped
// (see appliedIn).
func evaluate(r *liveRun) (*result, error) {
	res := &result{
		Workload:      r.w,
		Seed:          r.seed,
		WindowSeconds: r.b.At.Sub(r.a.At).Seconds(),
		Violations:    r.violations,
		Metrics:       map[string]float64{},
		Counts:        map[string]int{},
	}
	for _, nd := range r.c.nodes {
		res.Nodes = append(res.Nodes, nodeInfo{Argv: nd.Argv, CPU: nd.CPU})
	}
	m, n := res.Metrics, res.Counts
	window := r.b.At.Sub(r.a.At)

	tip := r.closes[len(r.closes)-1].Seq
	where, perLedger, err := appliedIn(r.c.nodes[0].DataDir, r.fundSeq, tip)
	if err != nil {
		return nil, err
	}

	// Every submission of the load phase counts, warm-up and tail too: a
	// refusal or a loss anywhere is a failure of the workload.
	var refused429, refused503, transportErrs, otherRefused, lost int
	var lat, late, rtt []float64
	byLedger := map[uint32][]float64{} // latencies of the window's transactions, by the ledger that applied them
	for i := range r.subs {
		s := &r.subs[i]
		inWindow := !s.Due.Before(r.a.At) && s.Due.Before(r.b.At)
		if inWindow {
			late = append(late, ms(s.Late))
			rtt = append(rtt, ms(s.RTT))
		}
		switch {
		case s.Status == 0:
			transportErrs++
			continue
		case s.Status == 429:
			refused429++
			continue
		case s.Status == 503:
			refused503++
			continue
		case !s.accepted():
			otherRefused++
			continue
		}
		ledgers := where[s.Hash]
		switch len(ledgers) {
		case 0:
			lost++
			continue
		case 1:
		default:
			r.violate("transaction %s applied %d times (ledgers %v)", s.Hash.Hex(), len(ledgers), ledgers)
		}
		if !inWindow {
			continue
		}
		seen, ok := firstSeen(r.closes, ledgers[0])
		if !ok {
			return nil, fmt.Errorf("ledger %d applied but never observed", ledgers[0])
		}
		lat = append(lat, ms(seen.Sub(s.Due)))
		byLedger[ledgers[0]] = append(byLedger[ledgers[0]], ms(seen.Sub(s.Due)))
	}
	if lost > 0 {
		r.violate("%d accepted transactions were not applied within %d ledgers of the last submission", lost, drainLedgers)
	}
	res.Violations = r.violations
	res.Correct = len(r.violations) == 0
	res.Attempted = len(r.subs)
	res.Failed = transportErrs + refused429 + refused503 + otherRefused + lost

	// Close cadence: gaps between consecutive first-seen times in the window.
	var gaps []float64
	stalled := 0
	for i := 1; i < len(r.closes); i++ {
		prev, cur := r.closes[i-1], r.closes[i]
		if prev.At.Before(r.a.At) || cur.At.After(r.b.At) || cur.Seq != prev.Seq+1 {
			continue
		}
		gap := cur.At.Sub(prev.At)
		gaps = append(gaps, ms(gap))
		if gap >= stallGap {
			stalled++
		}
	}
	applied := 0
	for seq := r.a.Seq + 1; seq <= r.b.Seq; seq++ {
		applied += perLedger[seq]
	}
	for i, c := range r.closes {
		row := closeRow{Seq: c.Seq, Txs: perLedger[c.Seq], InWindow: c.Seq > r.a.Seq && c.Seq <= r.b.Seq}
		if i > 0 {
			row.GapMs = ms(c.At.Sub(r.closes[i-1].At))
		}
		res.Closes = append(res.Closes, row)
	}
	if len(lat) == 0 || len(gaps) == 0 || applied == 0 {
		return nil, fmt.Errorf("window of %s measured nothing: %d latencies, %d closes, %d applied", r.w.Name, len(lat), len(gaps), applied)
	}

	// End to end.
	m["setup_s"] = r.setup.Seconds()
	// The typical ledger's median: a stalled ledger and the backlog behind
	// it move the plain median by a sixth each, and how many a window holds
	// is luck; they move this one only once they are half the ledgers. The
	// plain percentiles are reported beside it, stalls and all.
	var ledgerMedians []float64
	for _, ls := range byLedger {
		ledgerMedians = append(ledgerMedians, median(ls))
	}
	m["submit_applied_ms_ledger_p50"] = median(ledgerMedians)
	n["submit_applied_ms_ledger_p50"] = len(ledgerMedians)
	m["submit_applied_ms_p50"] = quantile(lat, 0.50)
	m["submit_applied_ms_p90"] = quantile(lat, 0.90)
	m["submit_applied_ms_p99"] = quantile(lat, 0.99)
	n["submit_applied_ms"] = len(lat)
	m["close_ms_p50"] = median(gaps)
	m["close_overhead_ms_p50"] = median(gaps) - ms(ledgerInterval)
	n["close_ms_p50"] = len(gaps)
	m["applied_tx_s"] = float64(applied) / window.Seconds()
	n["applied_tx_s"] = applied
	m["node_cpu_ms_per_tx"] = ms(r.b.CPU-r.a.CPU) / float64(applied)
	m["node_peak_rss_mb"] = float64(r.peakRSS) / (1 << 20)
	m["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	m["ops_attempted"] = float64(res.Attempted * r.w.OpsPerTx)
	m["ops_failed"] = float64(res.Failed * r.w.OpsPerTx)
	m["submit_applied_highest_supported_percentile"] = highestSupportedPercentile(len(lat))

	// Observed by the benchmark (B).
	m["horizon.submit_ms_p50"] = quantile(rtt, 0.50)
	m["horizon.submit_ms_p99"] = quantile(rtt, 0.99)
	m["horizon.refused_429"] = float64(refused429)
	m["horizon.refused_503"] = float64(refused503)
	m["horizon.read_ms_p50"] = quantile(r.readRTT, 0.50)
	m["horizon.read_ms_p99"] = quantile(r.readRTT, 0.99)
	n["horizon.submit_ms"] = len(rtt)
	n["horizon.read_ms"] = len(r.readRTT)
	m["loadgen.late_ms_p99"] = quantile(late, 0.99)
	m["loadgen.late_ms_max"] = quantile(late, 1)
	if m["loadgen.late_ms_p99"] > ms(lateLimit) {
		res.Invalid = fmt.Sprintf("the generator ran late: loadgen.late_ms_p99 = %.0f ms, limit %v", m["loadgen.late_ms_p99"], lateLimit)
	}
	m["runtime.runq_wait_ms_per_s"] = ms(r.b.Waiting-r.a.Waiting) / window.Seconds()
	m["herder.stalled_closes"] = float64(stalled)
	m["herder.rejoin_s"] = r.rejoinTime.Seconds()

	// Scraped from node-0 (S): deltas of its registry over the window.
	d := delta(r.a.Metrics, r.b.Metrics)
	end := r.b.Metrics
	ledgers := d.sum("herder_ledgers_closed_total")
	applied0 := d.sum("ledger_txs_applied_total", `result="success"`)
	hits, misses := d.sum("verify_cache_hits_total"), d.sum("verify_cache_misses_total")
	m["verify.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["verify.checks_per_applied_tx"] = ratio(hits+misses, applied0)
	if wrapped(end.sum("verify_cache_hits_total")) || wrapped(end.sum("verify_cache_misses_total")) {
		// The node publishes these counters as racing uint64 differences; one
		// that went negative adds 2^64 and the series is lost for the run.
		m["verify.cache_hit_ratio"], m["verify.checks_per_applied_tx"] = unmeasured, unmeasured
	}
	m["mempool.evicted"] = d.sum("mempool_evicted_total")
	m["mempool.size_end"] = end.sum("mempool_size")
	m["ledger.apply_ms_per_ledger"] = 1e3 * ratio(d.sum("ledger_apply_seconds_sum"), d.sum("ledger_apply_seconds_count"))
	m["ledger.failed_txs"] = d.sum("ledger_txs_applied_total", `result="failed"`)
	envelopes := d.sum("scp_envelopes_emitted_total") + d.sum("scp_envelopes_received_total")
	m["scp.envelopes_per_ledger"] = ratio(envelopes, ledgers)
	m["scp.nomination_rounds_per_ledger"] = ratio(d.sum("scp_nomination_rounds_total"), ledgers)
	m["scp.nomination_timeouts"] = d.sum("scp_timeouts_total", `kind="nomination"`)
	m["scp.ballot_timeouts"] = d.sum("scp_timeouts_total", `kind="ballot"`)
	m["herder.nomination_ms_mean"] = 1e3 * ratio(d.sum("herder_nomination_seconds_sum"), d.sum("herder_nomination_seconds_count"))
	m["herder.balloting_ms_mean"] = 1e3 * ratio(d.sum("herder_balloting_seconds_sum"), d.sum("herder_balloting_seconds_count"))
	m["herder.tx_per_ledger_mean"] = ratio(d.sum("herder_tx_per_ledger_sum"), d.sum("herder_tx_per_ledger_count"))
	// The remainder row: what the close overhead holds beyond the phases
	// the node itself times.
	m["herder.unexplained_ms"] = m["close_overhead_ms_p50"] - m["herder.nomination_ms_mean"] -
		m["herder.balloting_ms_mean"] - m["ledger.apply_ms_per_ledger"]
	m["overlay.tx_packets_per_tx"] = ratio(d.sum("overlay_packets_sent_total", `kind="tx"`), applied0)
	m["overlay.bytes_per_tx"] = ratio(d.sum("overlay_bytes_sent_total"), applied0)
	m["overlay.envelope_packets_per_ledger"] = ratio(d.sum("overlay_packets_sent_total", `kind="envelope"`), ledgers)
	dupes := d.sum("overlay_dupes_suppressed_total")
	m["overlay.dupes_suppressed_ratio"] = ratio(dupes, dupes+d.sum("overlay_packets_delivered_total"))
	m["transport.bytes_out_per_ledger"] = ratio(d.sum("transport_bytes_out_total"), ledgers)
	m["transport.queue_sheds"] = d.sum("transport_queue_sheds_total")
	m["transport.reconnects"] = d.sum("transport_reconnects_total")
	m["runtime.gc_pause_ms_total"] = 1e3 * d.sum("go_gc_pause_seconds_total")
	m["runtime.gc_cycles"] = d.sum("go_gc_cycles_total")
	m["runtime.heap_mb_end"] = end.sum("go_heap_objects_bytes") / (1 << 20)
	n["node0_ledgers"] = int(ledgers)
	return res, nil
}
