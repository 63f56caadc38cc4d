package herder

import (
	"errors"
	"fmt"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/mempool"
	"stellar/internal/stellarcrypto"
)

// Admission (§5.2, DESIGN.md §8): a transaction reaches the pool one way,
// through admit, whether a client handed it to this node (AdmitTx) or a
// peer flooded it (onTx). The gate seals it, checks what no later ledger
// can change (structure, fee floor, time bounds already ended), runs
// CheckAuth, and leaves the rest to the bounded fee-priority pool; every
// outcome is counted in one vocabulary, AdmitCode, which the horizon layer
// maps onto HTTP (400, 429 + Retry-After + min-fee hint, 503).

// AdmitCode classifies an admission attempt.
type AdmitCode int

// Admission codes.
const (
	// AdmitAccepted: pooled (and, when local, flooded).
	AdmitAccepted AdmitCode = iota
	// AdmitDuplicate: already pooled (idempotent success).
	AdmitDuplicate
	// AdmitInvalid: malformed, a fee below the base-fee minimum, or time
	// bounds that ended at or before the last close. A client retry needs a
	// different transaction.
	AdmitInvalid
	// AdmitBadSignature: CheckAuth refused it — its signatures do not carry
	// the weight an account it names requires, or that account does not
	// exist here. A flood is refused so only when every such account exists.
	AdmitBadSignature
	// AdmitBadSeq: its sequence number does not continue its source's
	// chain (ledger.State.ValidChain): the account has used it already, or,
	// for a client's own submission, the pool holds no chain up to it. A
	// flood is refused so only when used, since two floods on one link may
	// arrive out of order.
	AdmitBadSeq
	// AdmitPoolFull: the pool is saturated and the fee does not beat the
	// eviction floor; MinFee says what would get in now.
	AdmitPoolFull
	// AdmitSourceCap: the source account is at its pending cap until one
	// of its transactions applies.
	AdmitSourceCap
	// AdmitSeqConflict: another pending transaction holds this (source,
	// sequence) at an equal-or-better fee rate; MinFee replaces it.
	AdmitSeqConflict
	// AdmitNotReady: the node has no ledger state yet.
	AdmitNotReady
)

var admitNames = [...]string{"accepted", "duplicate", "invalid", "bad_signature", "bad_seq", "pool_full", "source_cap", "seq_conflict", "not_ready"}

// String names the code for metric labels and error text.
func (c AdmitCode) String() string {
	if c < 0 || int(c) >= len(admitNames) {
		return "unknown"
	}
	return admitNames[c]
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

// AdmitTx admits a transaction a client handed to this node and floods it
// on acceptance; any CheckAuth failure refuses it. It is deterministic —
// the outcome depends only on ledger state and pool contents, never on
// wall-clock time or map order. Admission seals the transaction
// (ledger.Transaction.Seal): the caller must not modify it afterwards.
func (n *Node) AdmitTx(tx *ledger.Transaction) AdmitResult { return n.admit(tx, true) }

// onTx admits a peer-flooded transaction through the same gate, and
// reports whether it was refused as invalid, badly signed or spent, which
// the overlay then does not forward. A flood that fails CheckAuth is
// refused only when every account it needs signatures from exists here, so
// a forged copy can neither take a pool slot nor displace a resident; one
// that names an account this node cannot see yet is pooled unchecked — the
// account may exist a ledger later here, and overlay dedup never
// re-delivers a dropped flood. A gapped flood is pooled unchecked for the
// same reason: its predecessor may still be on its way.
func (n *Node) onTx(tx *ledger.Transaction) (refused bool) {
	c := n.admit(tx, false).Code
	return c == AdmitInvalid || c == AdmitBadSignature || c == AdmitBadSeq
}

// admit is the one admission routine. A refused flood closes the lifecycle
// trace the packet hook may have opened, or the bounded span map leaks.
func (n *Node) admit(tx *ledger.Transaction, local bool) AdmitResult {
	counts := &n.ins.admitted
	if !local {
		counts = &n.ins.flooded
	}
	if n.state == nil {
		counts[AdmitNotReady].Inc()
		return AdmitResult{Code: AdmitNotReady, Err: fmt.Errorf("herder: node not bootstrapped")}
	}
	h := tx.Seal(n.cfg.NetworkID)
	res := AdmitResult{Hash: h}
	var auth error
	var add mempool.AddResult
	if err := n.checkBasic(tx); err != nil {
		res.Code, res.Err, res.MinFee = AdmitInvalid, err, n.state.MinFee(tx)
	} else if auth = n.state.CheckAuth(tx, n.cfg.NetworkID); auth != nil && (local || n.state.HasSigningAccounts(tx)) {
		res.Code, res.Err = AdmitBadSignature, auth
	} else if err := n.checkSeq(tx, local); err != nil {
		res.Code, res.Err = AdmitBadSeq, err
	} else {
		add = n.pool.AddAt(tx, h, n.net.Now())
		res.Code, res.MinFee = poolCode[add.Outcome], add.MinFeeToEnter
		switch add.Outcome {
		case mempool.RejectedFull:
			res.Err = fmt.Errorf("herder: mempool full (fee floor %d)", add.MinFeeToEnter)
		case mempool.RejectedSourceCap:
			res.Err = fmt.Errorf("herder: source account at pending cap (%d)", n.pool.PerSourceCap())
		case mempool.RejectedSeqConflict:
			res.Err = fmt.Errorf("herder: sequence number already pending (replace fee %d)", add.MinFeeToEnter)
		}
	}
	counts[res.Code].Inc()
	switch {
	case res.Code == AdmitAccepted:
		res.Evicted = len(add.Evicted)
		n.notePooled(h, add.Evicted, auth)
		if local {
			n.traceLocalTx(h, add.Outcome)
			n.ov.BroadcastTx(tx, n.txCtx(h))
		}
	case !local && res.Code != AdmitDuplicate:
		n.traceEvictTx(h, res.Code.String())
	}
	return res
}

// poolCode maps the pool's verdict onto the admission vocabulary.
var poolCode = [...]AdmitCode{
	mempool.Added:               AdmitAccepted,
	mempool.Duplicate:           AdmitDuplicate,
	mempool.Replaced:            AdmitAccepted,
	mempool.RejectedFull:        AdmitPoolFull,
	mempool.RejectedSourceCap:   AdmitSourceCap,
	mempool.RejectedSeqConflict: AdmitSeqConflict,
}

// checkBasic is the part of the gate no later ledger can change: the
// transaction's structure, its fee against the floor, and time bounds that
// ended at or before the last close (stellar-core's txTOO_LATE).
func (n *Node) checkBasic(tx *ledger.Transaction) error {
	if err := tx.CheckStructure(); err != nil {
		return err
	}
	if min := n.state.MinFee(tx); tx.Fee < min {
		return fmt.Errorf("herder: fee %d below minimum %d", tx.Fee, min)
	}
	if expired(tx, n.last.CloseTime) {
		return fmt.Errorf("herder: time bounds ended at %d, last close at %d", tx.TimeBounds.MaxTime, n.last.CloseTime)
	}
	return nil
}

// checkSeq is the gate's part of the sequence rule: tx must continue its
// source's pooled chain (ledger.State.ValidChain). A sequence number the
// account has used is refused; one past a gap is refused only when local.
// A chain that stops before tx — a time bound not open yet, fees the
// balance cannot cover now, a gap a flood left — is left to the proposal.
func (n *Node) checkSeq(tx *ledger.Transaction, local bool) error {
	chain := append(n.pool.Chain(tx.Source, tx.SeqNum), tx)
	k, err := n.state.ValidChain(chain, n.proposedCloseTime())
	var bad *ledger.SeqError
	if k == len(chain)-1 && errors.As(err, &bad) && (bad.Used || local) {
		return err
	}
	return nil
}

// expired reports whether tx's time bounds end at or before closeTime: no
// ledger closing after it can include tx.
func expired(tx *ledger.Transaction, closeTime int64) bool {
	return tx.TimeBounds != nil && tx.TimeBounds.MaxTime != 0 && tx.TimeBounds.MaxTime <= closeTime
}

// CatchingUp reports whether the node is behind the network: it has no
// state, a cold start's discovery reported a tip above its own, or it holds
// externalized decisions it cannot apply yet (a future slot, or the next
// slot's transaction set still in flight). The horizon layer maps this to
// 503 + Retry-After, and it is when the node asks peers for ledgers.
func (n *Node) CatchingUp() bool {
	if n.state == nil || n.last.LedgerSeq < n.fetch.tip {
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
	}
	if n.state != nil {
		fs.MaxTxSetSize = n.state.MaxTxSetSize
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
