package ledger

import (
	"fmt"
	"sort"
	"time"

	"stellar/internal/obs"
	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Transaction application: validity checks, fee charging, sequence number
// processing, and atomic operation execution (§5.2).

// TxResult records the outcome of one transaction for the results hash in
// the ledger header (Fig 3: "a hash of the results of those transactions,
// e.g. success or failure for each").
type TxResult struct {
	TxHash     stellarcrypto.Hash
	FeeCharged Amount
	Success    bool
	// OpErrors holds per-operation failure strings; empty on success.
	OpErrors []string
	// Err summarizes why the transaction failed validity checks (never
	// made it to operation execution).
	Err string
}

// EncodeXDR writes the canonical result encoding.
func (r *TxResult) EncodeXDR(e *xdr.Encoder) {
	e.PutFixed(r.TxHash[:])
	e.PutInt64(r.FeeCharged)
	e.PutBool(r.Success)
	e.PutUint32(uint32(len(r.OpErrors)))
	for _, s := range r.OpErrors {
		e.PutString(s)
	}
	e.PutString(r.Err)
}

// CheckValid performs the §5.2 validity checks without executing:
// structural sanity, sequence number, time bounds, fee, and signatures.
// closeTime is the anticipated ledger close time. The order of the three
// parts is consensus-visible: the first error lands in TxResult.Err.
func (st *State) CheckValid(tx *Transaction, networkID stellarcrypto.Hash, closeTime int64) error {
	if err := tx.checkStructure(); err != nil {
		return err
	}
	if err := st.CheckSeqAndFee(tx, closeTime); err != nil {
		return err
	}
	return tx.checkSignatures(st, networkID)
}

// checkStructure is the part of CheckValid that reads nothing but the
// transaction: operation count and each operation's own parameters.
func (tx *Transaction) checkStructure() error {
	if len(tx.Operations) == 0 {
		return fmt.Errorf("ledger: transaction has no operations")
	}
	if len(tx.Operations) > 100 {
		return fmt.Errorf("ledger: transaction has too many operations")
	}
	for i := range tx.Operations {
		if tx.Operations[i].Body == nil {
			return fmt.Errorf("ledger: operation %d has no body", i)
		}
		if err := tx.Operations[i].Body.Validate(); err != nil {
			return fmt.Errorf("ledger: operation %d: %w", i, err)
		}
	}
	return nil
}

// CheckSeqAndFee is the part of CheckValid that changes from ledger to
// ledger: the source account exists, the sequence number is the next one,
// closeTime is inside the time bounds, and the fee is sufficient and
// affordable.
func (st *State) CheckSeqAndFee(tx *Transaction, closeTime int64) error {
	src := st.Account(tx.Source)
	if src == nil {
		return fmt.Errorf("ledger: source account %s does not exist", tx.Source)
	}
	// "A transaction's main validity criterion is its sequence number,
	// which must be one greater than that of the source account" (§5.2).
	if tx.SeqNum != src.SeqNum+1 {
		return fmt.Errorf("ledger: bad sequence number %d, account at %d", tx.SeqNum, src.SeqNum)
	}
	if !tx.TimeBounds.Contains(closeTime) {
		return fmt.Errorf("ledger: outside time bounds at close time %d", closeTime)
	}
	if tx.Fee < st.MinFee(tx) {
		return fmt.Errorf("ledger: fee %d below minimum %d", tx.Fee, st.MinFee(tx))
	}
	if src.Balance < tx.Fee {
		return fmt.Errorf("ledger: source cannot pay fee")
	}
	return nil
}

// CheckAuth is the rest of CheckValid: structure and signatures. For an
// immutable transaction its verdict depends only on which source accounts
// exist and on their signers, thresholds and master weights, so a pass
// holds for as long as AuthEpoch stands still — together with a passing
// CheckSeqAndFee it then equals a passing CheckValid. The mempool builds
// proposals on that (mempool.Pool.Candidates); apply never does.
func (st *State) CheckAuth(tx *Transaction, networkID stellarcrypto.Hash) error {
	if err := tx.checkStructure(); err != nil {
		return err
	}
	return tx.checkSignatures(st, networkID)
}

// AuthEpoch counts the applied operations that could have changed the
// verdict of an earlier CheckAuth: a SetOptions that names a signer, a
// threshold or the master weight, and the removal of an account. It is
// node-local bookkeeping, not ledger content; it also advances for
// operations a failed transaction rolled back, which costs a re-check and
// nothing else.
func (st *State) AuthEpoch() uint64 { return st.authEpoch }

// ApplyTransaction executes one transaction against the state. Fee and
// sequence processing persist even when operations fail; the operations
// themselves are atomic (§5.2).
func (st *State) ApplyTransaction(tx *Transaction, networkID stellarcrypto.Hash, env *ApplyEnv) TxResult {
	res := TxResult{TxHash: tx.Hash(networkID)}
	if err := st.CheckValid(tx, networkID, env.CloseTime); err != nil {
		res.Err = err.Error()
		return res
	}
	// Charge the fee and bump the sequence number; these stick no matter
	// what the operations do ("Executing a valid transaction
	// (successfully or not) increments the sequence number", §5.2).
	fee := st.MinFee(tx)
	if tx.Fee < fee {
		fee = tx.Fee
	}
	src := st.accounts[tx.Source] // direct: outside any journal scope
	st.markDirty(accountKey(tx.Source))
	src.Balance -= fee
	src.SeqNum = tx.SeqNum
	st.FeePool += fee
	res.FeeCharged = fee

	// Execute operations atomically.
	st.begin()
	for i := range tx.Operations {
		op := &tx.Operations[i]
		if err := op.Body.Apply(st, env, op.sourceOr(tx.Source)); err != nil {
			st.rollbackTx()
			res.OpErrors = append(res.OpErrors,
				fmt.Sprintf("op %d (%s): %v", i, op.Body.Type(), err))
			return res
		}
	}
	st.commitTx()
	res.Success = true
	return res
}

// TxSet is the batch of transactions one ledger applies (§5.3): it is
// identified by a hash covering the previous ledger header, so a set is
// only meaningful on top of the ledger it was built for.
type TxSet struct {
	PrevLedgerHash stellarcrypto.Hash
	Txs            []*Transaction

	// seal memoises the hash of a set that will not change again (seal.go).
	seal setSeal
}

// Hash returns the transaction set's content hash: the previous ledger
// hash followed by the transaction hashes in ascending order. A sealed set
// computes it once.
func (ts *TxSet) Hash(networkID stellarcrypto.Hash) stellarcrypto.Hash {
	h, _ := ts.sum(networkID)
	return h
}

// sum is Hash together with whether the set lists a transaction twice,
// which the same sort finds (txsetref.go).
func (ts *TxSet) sum(networkID stellarcrypto.Hash) (stellarcrypto.Hash, bool) {
	s := &ts.seal
	if s.hashed && s.networkID == networkID {
		return s.hash, s.duplicate
	}
	hashes := make([]stellarcrypto.Hash, len(ts.Txs))
	for i, tx := range ts.Txs {
		hashes[i] = tx.Hash(networkID)
	}
	h, duplicate := setHash(ts.PrevLedgerHash, hashes)
	if s.sealed && !s.hashed {
		s.networkID, s.hash, s.duplicate, s.hashed = networkID, h, duplicate, true
	}
	return h, duplicate
}

// NumOperations totals the operations across the set (the §5.3 nomination
// comparison key).
func (ts *TxSet) NumOperations() int {
	n := 0
	for _, tx := range ts.Txs {
		n += tx.NumOperations()
	}
	return n
}

// TotalFees sums the offered fees (the §5.3 tie-break).
func (ts *TxSet) TotalFees() Amount {
	var f Amount
	for _, tx := range ts.Txs {
		f += tx.Fee
	}
	return f
}

// SortForApply orders transactions deterministically for execution:
// grouped by source account in sequence-number order (so chained
// transactions work). The comparator is a total order independent of the
// slice's incoming order — essential because TxSet.Hash is
// order-insensitive, so two nodes may hold the same logical set in
// different orders and must still apply identically.
func (ts *TxSet) SortForApply(networkID stellarcrypto.Hash) []*Transaction {
	out := append([]*Transaction(nil), ts.Txs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		if out[i].SeqNum != out[j].SeqNum {
			return out[i].SeqNum < out[j].SeqNum
		}
		return out[i].Hash(networkID).Less(out[j].Hash(networkID))
	})
	return out
}

// VerifyTxSetSignatures fans the signature checks of txs across the
// attached verifier's pool, warming the cache so the sequential apply
// step finds every verdict memoized. It is a pure prepass: it touches no
// ledger state (checkSignatures only reads account entries, and nothing
// mutates the state while the pool runs), so it cannot change any
// transaction's outcome — a tx whose signing requirements depend on an
// earlier tx in the set (say, a SetOptions changing signers) is still
// decided by the sequential re-check against then-current state; only
// the raw (key, msg, sig) verdicts are reused. No-op without a verifier
// or without parallelism to exploit.
func (st *State) VerifyTxSetSignatures(txs []*Transaction, networkID stellarcrypto.Hash) {
	v := st.verifier
	if v == nil || v.Pool.Workers() <= 1 || len(txs) < 2 {
		return
	}
	v.Pool.Run(len(txs), func(i int) {
		_ = txs[i].checkSignatures(st, networkID)
	})
}

// ApplyTxSet executes a whole transaction set, returning per-transaction
// results and the results hash for the header. When a verifier is
// attached, signature verification fans out across the pool first;
// execution itself is one sequential loop in apply order (DESIGN §14 has
// the measurements behind that).
func (st *State) ApplyTxSet(ts *TxSet, networkID stellarcrypto.Hash, env *ApplyEnv) ([]TxResult, stellarcrypto.Hash) {
	start := time.Now()
	txs := ts.SortForApply(networkID)
	prepassStart := time.Now()
	st.VerifyTxSetSignatures(txs, networkID)
	st.traceSpan.CompleteChild(obs.SpanSigPrepass, time.Since(prepassStart))
	loopStart := time.Now()
	results := make([]TxResult, 0, len(txs))
	for _, tx := range txs {
		results = append(results, st.ApplyTransaction(tx, networkID, env))
	}
	st.traceSpan.CompleteChild(obs.SpanTxApply, time.Since(loopStart))
	st.observeApply(start, results)
	if st.verifier != nil {
		// Fold cache/pool deltas into the metric registry once per
		// ledger, whether or not the parallel prepass ran (a 1-worker
		// node still verifies through the cache).
		st.verifier.FlushObs()
	}
	e := xdr.NewEncoder(64 * len(results))
	for i := range results {
		results[i].EncodeXDR(e)
	}
	return results, stellarcrypto.HashBytes(e.Bytes())
}

// SurgePrice trims a candidate transaction list to the ledger's capacity
// (in operations), keeping the highest fee-per-operation transactions —
// the Dutch auction of §5.2 under congestion.
func SurgePrice(txs []*Transaction, maxOps int) []*Transaction {
	sorted := append([]*Transaction(nil), txs...)
	sort.Slice(sorted, func(i, j int) bool {
		// Fee rate per operation, compared as cross products.
		li := sorted[i].Fee * Amount(sorted[j].NumOperations())
		lj := sorted[j].Fee * Amount(sorted[i].NumOperations())
		if li != lj {
			return li > lj
		}
		return sorted[i].SeqNum < sorted[j].SeqNum
	})
	out := make([]*Transaction, 0, len(sorted))
	ops := 0
	for _, tx := range sorted {
		if ops+tx.NumOperations() > maxOps {
			continue
		}
		ops += tx.NumOperations()
		out = append(out, tx)
	}
	return out
}
