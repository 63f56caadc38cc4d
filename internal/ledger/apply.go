package ledger

import (
	"bytes"
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"strings"
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
	if err := tx.CheckStructure(); err != nil {
		return err
	}
	if err := st.CheckSeqAndFee(tx, closeTime); err != nil {
		return err
	}
	return tx.checkSignatures(st, networkID)
}

// CheckStructure is the part of CheckValid that reads nothing but the
// transaction: operation count and each operation's own parameters.
func (tx *Transaction) CheckStructure() error {
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
// ledger: ValidChain's one-step case.
func (st *State) CheckSeqAndFee(tx *Transaction, closeTime int64) error {
	_, err := st.ValidChain([]*Transaction{tx}, closeTime)
	return err
}

// ValidChain is the per-source sequence rule (§5.2), the one place that
// knows it. chain is one source's pending transactions in ascending
// sequence order; ValidChain returns how many of them, from the first,
// ApplyTxSet's fee pass charges one after another in a ledger closing at
// closeTime, and why it refuses the next. A prefix is valid when the source
// account exists, the sequence numbers run contiguously from the account's
// sequence number + 1, closeTime is inside each transaction's time bounds,
// each fee reaches the minimum, and the balance covers the fees offered
// along the chain. A
// prefix of a valid chain is valid, which is what lets SurgePrice cut
// chains. The gate, the proposal and set validation (ValidChains) call it;
// the fee pass calls its one-step case, whose error lands in TxResult.Err.
func (st *State) ValidChain(chain []*Transaction, closeTime int64) (int, error) {
	if len(chain) == 0 {
		return 0, nil
	}
	src := st.Account(chain[0].Source)
	if src == nil {
		return 0, fmt.Errorf("ledger: source account %s does not exist", chain[0].Source)
	}
	seq, fees := src.SeqNum, Amount(0)
	for i, tx := range chain {
		// "A transaction's main validity criterion is its sequence number,
		// which must be one greater than that of the source account"
		// (§5.2): of the one before it in the chain.
		if tx.SeqNum != seq+1 {
			return i, &SeqError{Seq: tx.SeqNum, After: seq, Used: tx.SeqNum <= src.SeqNum}
		}
		if !tx.TimeBounds.Contains(closeTime) {
			return i, fmt.Errorf("ledger: outside time bounds at close time %d", closeTime)
		}
		if tx.Fee < st.MinFee(tx) {
			return i, fmt.Errorf("ledger: fee %d below minimum %d", tx.Fee, st.MinFee(tx))
		}
		if fees += tx.Fee; src.Balance < fees {
			return i, fmt.Errorf("ledger: source cannot pay fee")
		}
		seq = tx.SeqNum
	}
	return len(chain), nil
}

// SeqError is ValidChain's verdict on a sequence number that does not
// continue the chain.
type SeqError struct {
	Seq   uint64 // the transaction's sequence number
	After uint64 // the one it had to follow
	// Used reports that the account has spent Seq already, so no later
	// ledger can make the transaction valid.
	Used bool
}

func (e *SeqError) Error() string {
	return fmt.Sprintf("ledger: bad sequence number %d, account at %d", e.Seq, e.After)
}

// CheckAuth is the rest of CheckValid: structure and signatures. For an
// immutable transaction its verdict depends only on which source accounts
// exist and on their signers, thresholds and master weights, so a pass
// holds for as long as AuthEpoch stands still — together with a passing
// CheckSeqAndFee it then equals a passing CheckValid. The mempool builds
// proposals on that (mempool.Pool.Candidates); apply never does.
func (st *State) CheckAuth(tx *Transaction, networkID stellarcrypto.Hash) error {
	if err := tx.CheckStructure(); err != nil {
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

// ApplyTransaction executes one transaction against the state: a set of
// one, whose fee pass is its own CheckValid and fee. Fee and sequence
// processing persist even when operations fail; the operations themselves
// are atomic (§5.2).
func (st *State) ApplyTransaction(tx *Transaction, networkID stellarcrypto.Hash, env *ApplyEnv) TxResult {
	res := st.chargeFee(tx, networkID, env.CloseTime)
	if res.Err == "" {
		st.applyOps(tx, env, &res)
	}
	return res
}

// chargeFee is a transaction's part of the fee pass: CheckValid, then the
// fee and the sequence number, which stick no matter what the operations
// do ("Executing a valid transaction (successfully or not) increments the
// sequence number", §5.2). An invalid transaction is charged nothing.
func (st *State) chargeFee(tx *Transaction, networkID stellarcrypto.Hash, closeTime int64) TxResult {
	res := TxResult{TxHash: tx.Hash(networkID)}
	if err := st.CheckValid(tx, networkID, closeTime); err != nil {
		res.Err = err.Error()
		return res
	}
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
	return res
}

// applyOps executes tx's operations atomically into res.
func (st *State) applyOps(tx *Transaction, env *ApplyEnv, res *TxResult) {
	st.begin()
	for i := range tx.Operations {
		op := &tx.Operations[i]
		if err := op.Body.Apply(st, env, op.sourceOr(tx.Source)); err != nil {
			st.rollbackTx()
			res.OpErrors = append(res.OpErrors,
				fmt.Sprintf("op %d (%s): %v", i, op.Body.Type(), err))
			return
		}
	}
	st.commitTx()
	res.Success = true
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
// in ChainOrder, so chained transactions work, then by hash. The comparator
// is a total order independent of the slice's incoming order — essential
// because TxSet.Hash is order-insensitive, so two nodes may hold the same
// logical set in different orders and must still apply identically.
func (ts *TxSet) SortForApply(networkID stellarcrypto.Hash) []*Transaction {
	out := slices.Clone(ts.Txs)
	slices.SortFunc(out, func(a, b *Transaction) int {
		if c := ChainOrder(a, b); c != 0 {
			return c
		}
		ha, hb := a.Hash(networkID), b.Hash(networkID)
		return bytes.Compare(ha[:], hb[:])
	})
	return out
}

// ChainOrder orders transactions by source, then by sequence number: each
// source's chain in the order it applies. Apply, set validation, surge
// pricing and the mempool's proposals all sort by it.
func ChainOrder(a, b *Transaction) int {
	return cmp.Or(strings.Compare(string(a.Source), string(b.Source)), cmp.Compare(a.SeqNum, b.SeqNum))
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
// execution itself is one sequential loop in apply order (DESIGN.md §3 has
// the measurements behind that). That loop is the last reader of the set's
// signature verdicts — an applied transaction's sequence number is spent —
// so they leave the cache after it, under the keys its lookups computed.
func (st *State) ApplyTxSet(ts *TxSet, networkID stellarcrypto.Hash, env *ApplyEnv) ([]TxResult, stellarcrypto.Hash) {
	start := time.Now()
	txs := ts.SortForApply(networkID)
	prepassStart := time.Now()
	st.VerifyTxSetSignatures(txs, networkID)
	st.traceSpan.CompleteChild(obs.SpanSigPrepass, time.Since(prepassStart))
	loopStart := time.Now()
	if st.verifier != nil {
		st.spent = make([]stellarcrypto.Hash, 0, len(txs))
	}
	// The fee pass: every transaction is checked and charged before any
	// operation runs, as stellar-core's processFeesSeqNums does. Only fees
	// and sequence numbers move in it, so it passes exactly the chains
	// ValidChains passes on the tip, and every member of a valid set pays.
	results := make([]TxResult, len(txs))
	for i, tx := range txs {
		results[i] = st.chargeFee(tx, networkID, env.CloseTime)
	}
	// The operation pass. An earlier transaction's merge or SetOptions may
	// have removed an account a later one needs or changed its signers; a
	// transaction that no longer carries the weight keeps its fee and runs
	// nothing.
	epoch := st.authEpoch
	for i, tx := range txs {
		if results[i].Err != "" {
			continue
		}
		if st.authEpoch != epoch {
			if err := tx.checkSignatures(st, networkID); err != nil {
				results[i].Err = err.Error()
				continue
			}
		}
		st.applyOps(tx, env, &results[i])
	}
	st.traceSpan.CompleteChild(obs.SpanTxApply, time.Since(loopStart))
	st.observeApply(start, results)
	if st.verifier != nil {
		st.verifier.Cache.Forget(st.spent)
		st.spent = nil
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

// SurgePrice trims candidate transactions to the ledger's capacity (in
// operations) — the Dutch auction of §5.2 under congestion — without
// breaking a chain: txs holds each source's valid chain (ValidChain), and
// SurgePrice keeps a prefix of each. It takes account queues: the queue
// whose head pays the highest fee per operation goes next (ties to the
// lower sequence number, then the lower source), taking a head exposes the
// transaction behind it, and a queue whose head does not fit is dropped
// whole. The result is in the order taken.
func SurgePrice(txs []*Transaction, maxOps int) []*Transaction {
	queues := chainQueues(chains(txs))
	heap.Init(&queues)
	out := make([]*Transaction, 0, len(txs))
	ops := 0
	for len(queues) > 0 {
		q := queues[0]
		if ops+q[0].NumOperations() > maxOps {
			heap.Pop(&queues)
			continue
		}
		ops += q[0].NumOperations()
		out = append(out, q[0])
		if len(q) == 1 {
			heap.Pop(&queues)
		} else {
			queues[0] = q[1:]
			heap.Fix(&queues, 0)
		}
	}
	return out
}

// ValidChains reports whether txs, taken per source in sequence order,
// are each a whole valid chain at closeTime (ValidChain): whether a
// transaction set can apply without a transaction failing on its sequence
// number, time bounds or fee.
func (st *State) ValidChains(txs []*Transaction, closeTime int64) bool {
	for _, chain := range chains(txs) {
		if k, _ := st.ValidChain(chain, closeTime); k < len(chain) {
			return false
		}
	}
	return true
}

// chains groups txs per source: a copy ordered by source, then by
// sequence number, cut into one run per source.
func chains(txs []*Transaction) [][]*Transaction {
	sorted := slices.Clone(txs)
	slices.SortStableFunc(sorted, ChainOrder)
	var out [][]*Transaction
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].Source == sorted[i].Source {
			j++
		}
		out = append(out, sorted[i:j])
		i = j
	}
	return out
}

// chainQueues is SurgePrice's max-heap of account queues, keyed by head.
type chainQueues [][]*Transaction

func (h chainQueues) Len() int { return len(h) }
func (h chainQueues) Less(i, j int) bool {
	a, b := h[i][0], h[j][0]
	// Fee rate per operation, compared as cross products.
	ra, rb := a.Fee*Amount(b.NumOperations()), b.Fee*Amount(a.NumOperations())
	if ra != rb {
		return ra > rb
	}
	if a.SeqNum != b.SeqNum {
		return a.SeqNum < b.SeqNum
	}
	return a.Source < b.Source
}
func (h chainQueues) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *chainQueues) Push(x any)   { *h = append(*h, x.([]*Transaction)) }
func (h *chainQueues) Pop() any {
	old := *h
	q := old[len(old)-1]
	*h = old[:len(old)-1]
	return q
}
