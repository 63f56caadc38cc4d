package ledger

import (
	"time"

	"stellar/internal/obs"
)

// ledgerInstruments are the apply-path registry series. Unlike the
// herder's virtual-time consensus latencies, apply timing is real compute
// and is measured on the wall clock.
type ledgerInstruments struct {
	applySeconds *obs.Histogram  // ledger_apply_seconds
	txApplied    *obs.CounterVec // ledger_txs_applied_total{result}
}

// SetTraceSpan points the apply path at the current ledger's trace span;
// ApplyTxSet records its signature prepass and sequential apply loop as
// wall-clock-measured children of it. The herder sets it just before each
// close and clears it after; nil (the default) disables span recording.
func (st *State) SetTraceSpan(sp *obs.Span) { st.traceSpan = sp }

// SetObs wires the state's apply metrics into the registry; nil detaches.
func (st *State) SetObs(reg *obs.Registry) {
	if reg == nil {
		st.ins = nil
		return
	}
	st.ins = &ledgerInstruments{
		applySeconds: reg.Histogram("ledger_apply_seconds",
			"wall-clock time applying one transaction set (§7.3 ledger update)", nil),
		txApplied: reg.CounterVec("ledger_txs_applied_total",
			"transactions applied, by outcome", "result"),
	}
}

// observeApply records one ApplyTxSet execution.
func (st *State) observeApply(start time.Time, results []TxResult) {
	if st.ins == nil {
		return
	}
	st.ins.applySeconds.ObserveDuration(time.Since(start))
	var ok, failed float64
	for i := range results {
		if results[i].Success {
			ok++
		} else {
			failed++
		}
	}
	st.ins.txApplied.With("success").Add(ok)
	st.ins.txApplied.With("failed").Add(failed)
}
