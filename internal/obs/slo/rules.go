package slo

import (
	"fmt"
	"time"

	"stellar/internal/obs/timeseries"
)

// Canonical rule names. Chaos scenarios and smoke scripts assert against
// these strings, so they are part of the detection API.
const (
	RuleCloseStall        = "close_stall"
	RuleCloseIntervalP99  = "close_interval_p99"
	RuleSubmitAppliedP99  = "submit_applied_p99"
	RuleQuorumUnavailable = "quorum_unavailable"
	RuleMempoolSaturated  = "mempool_saturated"
	RulePeerLoss          = "peer_loss"
)

// Config sizes the default rule set for one node's ledger cadence.
type Config struct {
	// LedgerInterval is the node's nominal close cadence (0 = 5 s, the
	// paper's target).
	LedgerInterval time.Duration
	// StallIntervals is how many expected intervals may pass with no close
	// before close_stall fires (0 = 4).
	StallIntervals int
	// MinPeers fires peer_loss when transport_peers drops below it
	// (0 disables the rule's breach condition — single-process demos have
	// no transport).
	MinPeers int
}

func (c *Config) defaults() {
	if c.LedgerInterval <= 0 {
		c.LedgerInterval = 5 * time.Second
	}
	if c.StallIntervals <= 0 {
		c.StallIntervals = 4
	}
}

// armed gates a rule on the node having provably worked: at least one
// ledger closed. Before that, quorum availability and peer gauges are
// legitimately zero (peers still handshaking, no envelopes heard) and
// firing would false-alarm every boot.
func armed(r *timeseries.Ring) bool {
	v, ok := r.Last("herder_ledgers_closed_total")
	return ok && v > 0
}

// DefaultRules builds the standard rule set guarding the paper's
// service-level claims.
func DefaultRules(cfg Config) []Rule {
	cfg.defaults()
	stallWindow := time.Duration(cfg.StallIntervals) * cfg.LedgerInterval
	damp := 2 * cfg.LedgerInterval
	// Header close times carry unix-second granularity, so sub-second
	// cadences still observe ≥1 s intervals: the quantile ceilings scale
	// from max(LedgerInterval, 2 s). A submitted tx normally waits up to
	// one full interval for the next close plus apply time, hence 3× for
	// submit→applied. The lookback spans several closes.
	floor := max(cfg.LedgerInterval, 2*time.Second)
	closeIntervalMax := floor + floor/2
	submitAppliedMax := 3 * floor
	evalWindow := max(6*cfg.LedgerInterval, 30*time.Second)
	const mempoolMaxRatio = 0.9

	return []Rule{
		{
			Name:     RuleCloseStall,
			Severity: SeverityCritical,
			For:      0, // the stall window is the damping
			Claim:    "§7: the network closes a ledger every ~5s; zero closes across several intervals means consensus is stuck",
			Eval: func(r *timeseries.Ring, now time.Duration) Check {
				d, ok := r.Delta("herder_ledgers_closed_total", stallWindow, now)
				if !ok {
					return Check{Unknown: true}
				}
				c := Check{Value: d, Threshold: 1}
				if d <= 0 {
					c.Breached = true
					c.Detail = fmt.Sprintf("no ledger closed in %s (%d intervals)", stallWindow, cfg.StallIntervals)
				}
				return c
			},
		},
		{
			Name:     RuleCloseIntervalP99,
			Severity: SeverityWarning,
			For:      damp,
			Claim:    "§7: close cadence p99 within 1.5x of the nominal interval",
			Eval: func(r *timeseries.Ring, now time.Duration) Check {
				w, ok := r.Window("herder_close_interval_seconds", evalWindow, now)
				if !ok {
					return Check{Unknown: true}
				}
				p99, ok := w.Quantile(0.99)
				if !ok {
					return Check{Unknown: true} // no closes in window: close_stall's job
				}
				c := Check{Value: p99, Threshold: closeIntervalMax.Seconds()}
				if p99 > c.Threshold {
					c.Breached = true
					c.Detail = fmt.Sprintf("close-interval p99 %.2fs over %s window", p99, evalWindow)
				}
				return c
			},
		},
		{
			Name:     RuleSubmitAppliedP99,
			Severity: SeverityWarning,
			For:      damp,
			Claim:    "§7: submitted payments apply within a few close intervals end to end",
			Eval: func(r *timeseries.Ring, now time.Duration) Check {
				w, ok := r.Window("herder_submit_applied_seconds", evalWindow, now)
				if !ok {
					return Check{Unknown: true}
				}
				p99, ok := w.Quantile(0.99)
				if !ok {
					return Check{Unknown: true} // no submissions in window
				}
				c := Check{Value: p99, Threshold: submitAppliedMax.Seconds()}
				if p99 > c.Threshold {
					c.Breached = true
					c.Detail = fmt.Sprintf("submit→applied p99 %.2fs over %s window", p99, evalWindow)
				}
				return c
			},
		},
		{
			Name:     RuleQuorumUnavailable,
			Severity: SeverityCritical,
			For:      damp,
			Claim:    "§3: liveness requires a quorum of healthy trusted nodes; none of this node's slices is fully healthy",
			Eval: func(r *timeseries.Ring, now time.Duration) Check {
				if !armed(r) {
					return Check{Unknown: true}
				}
				v, ok := r.Last("quorum_available")
				if !ok {
					return Check{Unknown: true}
				}
				c := Check{Value: v, Threshold: 1}
				if v < 1 {
					c.Breached = true
					c.Detail = "no quorum slice has all members healthy"
				}
				return c
			},
		},
		{
			Name:     RuleMempoolSaturated,
			Severity: SeverityWarning,
			For:      damp,
			Claim:    "ingress backpressure: a pool pinned at capacity is shedding fee-paying load",
			Eval: func(r *timeseries.Ring, now time.Duration) Check {
				size, ok1 := r.Last("mempool_size")
				capacity, ok2 := r.Last("mempool_capacity")
				if !ok1 || !ok2 || capacity <= 0 {
					return Check{Unknown: true}
				}
				ratio := size / capacity
				c := Check{Value: ratio, Threshold: mempoolMaxRatio}
				if ratio >= mempoolMaxRatio {
					c.Breached = true
					c.Detail = fmt.Sprintf("mempool %0.f/%0.f (%.0f%% full)", size, capacity, ratio*100)
				}
				return c
			},
		},
		{
			Name:     RulePeerLoss,
			Severity: SeverityWarning,
			For:      damp,
			Claim:    "§6: overlay flooding needs connected peers; below quorum-threshold connectivity the node cannot hear slices",
			Eval: func(r *timeseries.Ring, now time.Duration) Check {
				if cfg.MinPeers <= 0 {
					return Check{Unknown: true}
				}
				if !armed(r) {
					return Check{Unknown: true}
				}
				v, ok := r.Last("transport_peers")
				if !ok {
					return Check{Unknown: true}
				}
				c := Check{Value: v, Threshold: float64(cfg.MinPeers)}
				if v < float64(cfg.MinPeers) {
					c.Breached = true
					c.Detail = fmt.Sprintf("%.0f connected peers, need %d", v, cfg.MinPeers)
				}
				return c
			},
		},
	}
}
