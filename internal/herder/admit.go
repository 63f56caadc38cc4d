package herder

import (
	"fmt"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/mempool"
	"stellar/internal/stellarcrypto"
)

// Admission front door (ROADMAP item 1): AdmitTx is the one gate every
// locally submitted transaction passes — basic validity, then the
// bounded fee-priority pool's policy — with a per-outcome result rich
// enough for the horizon layer to map onto HTTP backpressure semantics
// (429 + Retry-After + min-fee hint) without re-deriving pool state.

// AdmitCode classifies an admission attempt.
type AdmitCode int

// Admission codes.
const (
	// AdmitAccepted: pooled and flooded.
	AdmitAccepted AdmitCode = iota
	// AdmitDuplicate: already pooled (idempotent success).
	AdmitDuplicate
	// AdmitInvalid: fails stateless checks (no operations, fee below the
	// base-fee minimum). A client retry needs a different transaction.
	AdmitInvalid
	// AdmitPoolFull: the pool is saturated and the fee does not beat the
	// eviction floor. Retryable; MinFee says what would get in now.
	AdmitPoolFull
	// AdmitSourceCap: the source account is at its pending cap.
	// Retryable after one of its transactions applies.
	AdmitSourceCap
	// AdmitSeqConflict: another pending transaction holds this (source,
	// sequence) at an equal-or-better fee rate. Retryable with MinFee to
	// replace it, or with the next sequence number.
	AdmitSeqConflict
	// AdmitNotReady: the node has no ledger state or is catching up to
	// the network; clients should retry against a synced node.
	AdmitNotReady
)

// String names the code for metric labels and error text.
func (c AdmitCode) String() string {
	switch c {
	case AdmitAccepted:
		return "accepted"
	case AdmitDuplicate:
		return "duplicate"
	case AdmitInvalid:
		return "invalid"
	case AdmitPoolFull:
		return "pool_full"
	case AdmitSourceCap:
		return "source_cap"
	case AdmitSeqConflict:
		return "seq_conflict"
	case AdmitNotReady:
		return "not_ready"
	}
	return "unknown"
}

// Retryable reports whether the same transaction (possibly at a higher
// fee) can succeed later without modification of anything but fee/timing.
func (c AdmitCode) Retryable() bool {
	switch c {
	case AdmitPoolFull, AdmitSourceCap, AdmitSeqConflict, AdmitNotReady:
		return true
	}
	return false
}

// AdmitResult reports one admission attempt.
type AdmitResult struct {
	Code AdmitCode
	// Hash is the transaction hash under the node's network (zero only
	// for AdmitNotReady, where no state exists to hash against).
	Hash stellarcrypto.Hash
	// Err describes the rejection (nil for accepted/duplicate).
	Err error
	// MinFee, when nonzero, is the smallest total fee that would have
	// admitted this transaction — the surge-fee feedback 429 bodies carry.
	MinFee ledger.Amount
	// Evicted counts residents displaced by this admission (fee-pressure
	// eviction or replace-by-fee).
	Evicted int
}

// AdmitTx runs the admission pipeline for a locally submitted
// transaction: basic validity, pool policy, then flood. It is
// deterministic — the outcome depends only on ledger state and pool
// contents, never on wall-clock time or map order. Admission seals the
// transaction (ledger.Transaction.Seal): the caller must not modify it
// afterwards.
func (n *Node) AdmitTx(tx *ledger.Transaction) AdmitResult {
	if n.state == nil {
		return AdmitResult{Code: AdmitNotReady, Err: fmt.Errorf("herder: node not bootstrapped")}
	}
	h := tx.Seal(n.cfg.NetworkID)
	res := AdmitResult{Hash: h}
	if len(tx.Operations) == 0 || tx.Fee < n.state.MinFee(tx) {
		res.Code = AdmitInvalid
		res.MinFee = n.state.MinFee(tx)
		res.Err = fmt.Errorf("herder: transaction fails basic checks")
		n.ins.admitted[res.Code].Inc()
		return res
	}

	add := n.pool.Add(tx, h)
	switch add.Outcome {
	case mempool.Duplicate:
		res.Code = AdmitDuplicate
		n.ins.admitted[res.Code].Inc()
		return res
	case mempool.RejectedFull:
		res.Code = AdmitPoolFull
		res.MinFee = add.MinFeeToEnter
		res.Err = fmt.Errorf("herder: mempool full (fee floor %d)", add.MinFeeToEnter)
	case mempool.RejectedSourceCap:
		res.Code = AdmitSourceCap
		res.Err = fmt.Errorf("herder: source account at pending cap (%d)", n.pool.PerSourceCap())
	case mempool.RejectedSeqConflict:
		res.Code = AdmitSeqConflict
		res.MinFee = add.MinFeeToEnter
		res.Err = fmt.Errorf("herder: sequence number already pending (replace fee %d)", add.MinFeeToEnter)
	default: // Added or Replaced
		res.Code = AdmitAccepted
		res.Evicted = len(add.Evicted)
	}
	n.ins.admitted[res.Code].Inc()
	if res.Code != AdmitAccepted {
		return res
	}

	n.notePooled(h, add.Evicted)
	n.traceSubmitTx(h, add.Outcome)
	n.ov.BroadcastTxCtx(tx, n.txCtx(h))
	return res
}

// CatchingUp reports whether the node is behind the network: it has no
// state, or it holds externalized decisions it cannot apply yet (a
// future slot, or the next slot's transaction set still in flight). The
// horizon layer maps this to 503 + Retry-After.
func (n *Node) CatchingUp() bool {
	if n.state == nil {
		return true
	}
	next := uint64(n.last.LedgerSeq) + 1
	for slot, sv := range n.decided {
		if slot > next {
			return true
		}
		if slot == next {
			if _, have := n.txsets[sv.TxSetHash]; !have {
				return true
			}
		}
	}
	return false
}

// LedgerInterval reports the configured close cadence (the natural
// Retry-After unit for backpressure responses).
func (n *Node) LedgerInterval() time.Duration { return n.cfg.LedgerInterval }

// FeeStats is the surge-fee feedback surface behind GET /fee_stats.
type FeeStats struct {
	// BaseFee is the protocol minimum fee per operation.
	BaseFee ledger.Amount
	// MinFeePerOp is the fee per operation needed to enter the pool right
	// now: BaseFee with headroom, the eviction floor plus one when full.
	MinFeePerOp ledger.Amount
	// Pool occupancy and bounds.
	PoolSize     int
	PoolCap      int
	PerSourceCap int
	PoolFull     bool
	// Evictions counts fee-pressure evictions since the node started.
	Evictions uint64
	// Demand signal: transactions in the last closed ledger vs the cap.
	LastLedgerTxs int
	MaxTxSetSize  int
}

// FeeStats snapshots the current admission pricing.
func (n *Node) FeeStats() FeeStats {
	fs := FeeStats{
		PoolSize:      n.pool.Len(),
		PoolCap:       n.pool.Cap(),
		PerSourceCap:  n.pool.PerSourceCap(),
		PoolFull:      n.pool.Full(),
		Evictions:     n.pool.Evictions(),
		LastLedgerTxs: n.lastLedgerTxs,
		MaxTxSetSize:  n.cfg.MaxTxSetSize,
	}
	if n.state != nil {
		fs.BaseFee = n.state.BaseFee
		fs.MinFeePerOp = n.state.BaseFee
	}
	if fs.PoolFull {
		if perOp := n.pool.FeeToEnter(1); perOp > fs.MinFeePerOp {
			fs.MinFeePerOp = perOp
		}
	}
	return fs
}
