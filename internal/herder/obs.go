package herder

import (
	"strings"
	"time"

	"stellar/internal/obs"
	"stellar/internal/scp"
)

// instruments are the herder's registry series, resolved once at node
// construction so hot-path recording is a mutex-guarded add with no map
// lookups. Metric names are the contract the EXPERIMENTS.md figures and
// DESIGN.md §5 figure-to-metric map refer to.
type instruments struct {
	// SCP protocol volume (§7.2).
	envEmitted  *obs.CounterVec // scp_envelopes_emitted_total{type}
	envReceived *obs.CounterVec // scp_envelopes_received_total{type}
	timeouts    *obs.CounterVec // scp_timeouts_total{kind}
	nomRounds   *obs.Counter    // scp_nomination_rounds_total
	externals   *obs.Counter    // scp_slots_externalized_total

	// Consensus phase latencies (§7.3, Figs 9–11).
	nomination    *obs.Histogram // herder_nomination_seconds
	balloting     *obs.Histogram // herder_balloting_seconds
	closeInterval *obs.Histogram // herder_close_interval_seconds
	trigger       *obs.Histogram // herder_trigger_seconds
	intervalSlack *obs.Histogram // herder_interval_slack_seconds
	txPerLedger   *obs.Histogram // herder_tx_per_ledger
	ledgersClosed *obs.Counter   // herder_ledgers_closed_total
	submitApplied *obs.Histogram // herder_submit_applied_seconds

	// Admission (admit.go; DESIGN.md §8). The children of
	// mempool_admitted_total{outcome} are resolved here, one per AdmitCode
	// for local submissions and one per AdmitCode for floods ("flood_" +
	// its name), so counting an admission builds no label and looks
	// nothing up.
	admitted, flooded [AdmitNotReady + 1]*obs.Counter
	evicted           *obs.Counter // mempool_evicted_total
	poolSize          *obs.Gauge   // mempool_size
	poolCap           *obs.Gauge   // mempool_capacity

	// Proposals by reference (txsets.go): what became of each delivered
	// reference, and whole sets sent on request.
	txsetRefs   [refUnanswered + 1]*obs.Counter // herder_txset_refs_total{outcome}
	txsetServed *obs.Counter                    // herder_txset_requests_served_total

	// Live quorum health (health.go): 1 while the healthy validators still
	// satisfy a slice.
	quorumAvailable *obs.Gauge // quorum_available

	// Archive writes that failed, by file kind (herder.go archiveLedger).
	archiveErrors *obs.CounterVec // history_write_errors_total{file}

	// Catch-up, cold and lagging (catchup.go, netcatchup.go; DESIGN.md §7).
	catchupState    *obs.Gauge      // catchup_state
	catchupFiles    *obs.CounterVec // catchup_files_fetched_total{kind}
	catchupBytes    *obs.Counter    // catchup_bytes_fetched_total
	catchupReplayed *obs.Counter    // catchup_ledgers_replayed_total
}

func newInstruments(reg *obs.Registry) *instruments {
	admitted := reg.CounterVec("mempool_admitted_total",
		"admission decisions by outcome (flood_* = peer flood path)", "outcome")
	txsetRefs := reg.CounterVec("herder_txset_refs_total",
		"flooded tx-set references by outcome: resolved from the pool, fetched whole on a miss, ignored (closed ledger or malformed), unanswered (a request no reply came for)", "outcome")
	ins := &instruments{
		envEmitted: reg.CounterVec("scp_envelopes_emitted_total",
			"SCP envelopes this node broadcast, by statement type", "type"),
		envReceived: reg.CounterVec("scp_envelopes_received_total",
			"SCP envelopes received from peers, by statement type", "type"),
		timeouts: reg.CounterVec("scp_timeouts_total",
			"nomination and ballot timer expiries", "kind"),
		nomRounds: reg.Counter("scp_nomination_rounds_total",
			"nomination rounds started, including timeout escalations"),
		externals: reg.Counter("scp_slots_externalized_total",
			"slots this node decided"),
		nomination: reg.Histogram("herder_nomination_seconds",
			"nomination start to first prepare (paper §7.3)", nil),
		balloting: reg.Histogram("herder_balloting_seconds",
			"first prepare to externalize (paper §7.3)", nil),
		closeInterval: reg.Histogram("herder_close_interval_seconds",
			"time between consecutive ledger closes (close rate, §7.3)", nil),
		trigger: reg.Histogram("herder_trigger_seconds",
			"trigger timer fire to scp.Nominate return: pool validation, sort, surge pricing, tx-set hash and broadcast (wall time)", nil),
		intervalSlack: reg.Histogram("herder_interval_slack_seconds",
			"wait armed at apply: what was left of the interval when the close pipeline finished (0 = the node cannot hold the cadence)", nil),
		txPerLedger: reg.Histogram("herder_tx_per_ledger",
			"transactions confirmed per ledger", obs.CountBuckets),
		ledgersClosed: reg.Counter("herder_ledgers_closed_total",
			"ledgers this node applied"),
		submitApplied: reg.Histogram("herder_submit_applied_seconds",
			"local admission (submit or flood) to ledger apply, end to end (§7.3)", nil),
		evicted: reg.Counter("mempool_evicted_total",
			"pooled transactions displaced by fee-pressure eviction"),
		poolSize: reg.Gauge("mempool_size",
			"transactions in the bounded fee-priority pool"),
		poolCap: reg.Gauge("mempool_capacity",
			"configured mempool capacity (mempool_size/mempool_capacity is occupancy)"),
		txsetServed: reg.Counter("herder_txset_requests_served_total",
			"whole tx sets sent to a peer that asked for one by hash"),
		quorumAvailable: reg.Gauge("quorum_available",
			"1 when healthy validators still satisfy a quorum slice"),
		archiveErrors: reg.CounterVec("history_write_errors_total",
			"archive writes that failed (header, txset, bucket, checkpoint); a ledger whose header or txset failed stays in the catch-up window", "file"),
		catchupState: reg.Gauge("catchup_state",
			"cold-start catchup progress (0 idle, 1 discovering, 2 fetching state, 3 replaying ledgers, 4 done)"),
		catchupFiles: reg.CounterVec("catchup_files_fetched_total",
			"archive files of a peer's checkpointed state fetched and verified over the network", "kind"),
		catchupBytes: reg.Counter("catchup_bytes_fetched_total",
			"archive bytes fetched over the network"),
		catchupReplayed: reg.Counter("catchup_ledgers_replayed_total",
			"ledgers installed from peers' catch-up replies"),
	}
	for c := range ins.admitted {
		ins.admitted[c] = admitted.With(AdmitCode(c).String())
		ins.flooded[c] = admitted.With("flood_" + AdmitCode(c).String())
	}
	for o := range ins.txsetRefs {
		ins.txsetRefs[o] = txsetRefs.With(refOutcomeNames[o])
	}
	return ins
}

// CloseStats is one ledger close as this node measured it: the per-ledger
// quantities of the paper's evaluation (§7.2–§7.3). applyLedger builds one
// per close, observes the registry from it and hands it to OnLedgerClose.
// A phase carries a flag because a node does not see every phase of every
// slot: a slot decided without it (catch-up) has no consensus timings.
type CloseStats struct {
	Seq uint32
	// Txs is the transaction count, Apply the ledger update in wall time,
	// CloseInterval the close-time gap to the previous ledger.
	Txs           int
	Apply         time.Duration
	CloseInterval time.Duration
	// Nomination runs from nomination start to the first prepare, Balloting
	// from there to externalize; each is set only when its flag is.
	Nomination, Balloting time.Duration
	Nominated, Balloted   bool
	// NominationTimeouts, BallotTimeouts and Emitted (SCP envelopes this
	// node broadcast) are set only when InSCP: the node took part in the
	// slot's consensus.
	NominationTimeouts, BallotTimeouts, Emitted int
	InSCP                                       bool
}

// observeClose feeds one close into the registry.
func (ins *instruments) observeClose(cs CloseStats) {
	ins.ledgersClosed.Inc()
	ins.txPerLedger.Observe(float64(cs.Txs))
	ins.closeInterval.ObserveDuration(cs.CloseInterval)
	if cs.Nominated {
		ins.nomination.ObserveDuration(cs.Nomination)
	}
	if cs.Balloted {
		ins.balloting.ObserveDuration(cs.Balloting)
	}
}

// stmtLabel maps a statement type to its metric label value.
func stmtLabel(t scp.StatementType) string { return strings.ToLower(t.String()) }

// timerLabel maps a timer kind to its metric label value.
func timerLabel(k scp.TimerKind) string {
	if k == scp.TimerNomination {
		return "nomination"
	}
	return "ballot"
}

// Obs returns the node's observability bundle (registry, logger, span
// tracer). It is always non-nil.
func (n *Node) Obs() *obs.Obs { return n.obs }
