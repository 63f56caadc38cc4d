// Package mempool implements the bounded, fee-prioritized pending
// transaction pool behind the hardened submit pipeline (ROADMAP item 1):
// the front door the paper's §7 evaluation assumes but the bare herder
// never had. Admission is deterministic — outcomes depend only on the
// pool's contents and the order transactions arrive, never on map
// iteration or wall-clock time — so seeded simulations replay
// bit-identically with the pool in place.
//
// Policy, in admission order:
//
//  1. A transaction already pooled (same hash) is a duplicate.
//  2. At most one pending transaction per (source, sequence) pair: a
//     newcomer with a strictly higher fee rate supersedes the holder
//     (client-requested replace-by-fee); otherwise it is rejected with
//     the fee it would have needed.
//  3. A source account may hold at most MaxPerSource pending
//     transactions, so one key cannot monopolize the pool.
//  4. When the pool is full, the newcomer must offer a strictly higher
//     fee per operation than the cheapest resident, which is then
//     evicted (the §5.2 Dutch-auction shape applied at admission);
//     otherwise the newcomer is rejected and told the fee floor.
//
// Fee rates are compared as cross products (fee_a·ops_b vs fee_b·ops_a)
// with the transaction hash as the canonical tie-break, exactly like
// ledger.SurgePrice, so the eviction order is a total order.
//
// The pool is also where a proposal is collected from (Candidates), and it
// remembers per entry that structure and signatures already passed (Prove),
// so collecting re-checks only what changes from ledger to ledger.
package mempool

import (
	"bytes"
	"cmp"
	"container/heap"
	"slices"
	"sort"
	"strings"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// Defaults. The pool bound is far above any surge-priced ledger (so the
// pool absorbs several ledgers of backlog before pushing back) and the
// per-source cap is far above the one-tx-per-ledger rate an account can
// actually sustain.
const (
	DefaultMaxTxs       = 8192
	DefaultMaxPerSource = 64
)

// Config bounds a Pool.
type Config struct {
	// MaxTxs caps the pool size in transactions (0 = DefaultMaxTxs).
	MaxTxs int
	// MaxPerSource caps pending transactions per source account
	// (0 = DefaultMaxPerSource).
	MaxPerSource int
}

// Outcome classifies one admission attempt.
type Outcome int

// Admission outcomes.
const (
	Added Outcome = iota
	Duplicate
	Replaced // superseded a same-sequence resident with a higher fee rate
	RejectedFull
	RejectedSourceCap
	RejectedSeqConflict
)

// String names the outcome for metric labels and errors.
func (o Outcome) String() string {
	switch o {
	case Added:
		return "added"
	case Duplicate:
		return "duplicate"
	case Replaced:
		return "replaced"
	case RejectedFull:
		return "pool_full"
	case RejectedSourceCap:
		return "source_cap"
	case RejectedSeqConflict:
		return "seq_conflict"
	}
	return "unknown"
}

// Admitted reports whether the outcome put the transaction in the pool.
func (o Outcome) Admitted() bool { return o == Added || o == Replaced }

// EvictedTx names one transaction the pool dropped.
type EvictedTx struct {
	Hash stellarcrypto.Hash
	Tx   *ledger.Transaction
}

// AddResult reports one admission attempt.
type AddResult struct {
	Outcome Outcome
	// Evicted lists residents removed to make room (fee-priority
	// eviction, or the superseded holder on Replaced).
	Evicted []EvictedTx
	// MinFeeToEnter, on a rejection, is the smallest total fee that
	// would have admitted this transaction (the surge-fee feedback the
	// 429 body carries). Zero when no fee would have helped
	// (per-source cap).
	MinFeeToEnter ledger.Amount
}

type entry struct {
	tx    *ledger.Transaction
	hash  stellarcrypto.Hash
	index int // position in the eviction heap
	// proven records that tx passed ledger.State.CheckAuth when the
	// state's auth epoch was provenAt (Prove, Candidates).
	proven   bool
	provenAt uint64
}

// Pool is the bounded fee-priority pending set. It is not internally
// synchronized: like the rest of the herder it relies on the network
// environment's single-threaded event loop.
type Pool struct {
	cfg      Config
	byHash   map[stellarcrypto.Hash]*entry
	bySource map[ledger.AccountID]map[uint64]*entry
	evict    evictHeap // cheapest fee rate at the root
	// evictions counts fee-pressure evictions and replacements since
	// construction (not applied/stale pruning).
	evictions uint64
}

// New builds an empty pool.
func New(cfg Config) *Pool {
	if cfg.MaxTxs <= 0 {
		cfg.MaxTxs = DefaultMaxTxs
	}
	if cfg.MaxPerSource <= 0 {
		cfg.MaxPerSource = DefaultMaxPerSource
	}
	return &Pool{
		cfg:      cfg,
		byHash:   make(map[stellarcrypto.Hash]*entry),
		bySource: make(map[ledger.AccountID]map[uint64]*entry),
	}
}

// Len reports the pool size in transactions.
func (p *Pool) Len() int { return len(p.byHash) }

// Cap reports the pool's transaction capacity.
func (p *Pool) Cap() int { return p.cfg.MaxTxs }

// PerSourceCap reports the per-account pending cap.
func (p *Pool) PerSourceCap() int { return p.cfg.MaxPerSource }

// Full reports whether the pool is at capacity.
func (p *Pool) Full() bool { return len(p.byHash) >= p.cfg.MaxTxs }

// Evictions reports fee-pressure evictions (including replacements)
// since construction.
func (p *Pool) Evictions() uint64 { return p.evictions }

// Contains reports whether the transaction is pooled.
func (p *Pool) Contains(h stellarcrypto.Hash) bool { return p.byHash[h] != nil }

// Get returns the pooled transaction, or nil.
func (p *Pool) Get(h stellarcrypto.Hash) *ledger.Transaction {
	if e := p.byHash[h]; e != nil {
		return e.tx
	}
	return nil
}

// MaxSeq returns the highest pending sequence number for the source, so
// the API layer can chain client sequence numbers past what the ledger
// state alone would allow.
func (p *Pool) MaxSeq(source ledger.AccountID) (uint64, bool) {
	seqs := p.bySource[source]
	if len(seqs) == 0 {
		return 0, false
	}
	var max uint64
	for seq := range seqs {
		if seq > max {
			max = seq
		}
	}
	return max, true
}

// Each calls f for every pooled transaction in unspecified order; callers
// feeding consensus must canonicalize (Candidates does).
func (p *Pool) Each(f func(h stellarcrypto.Hash, tx *ledger.Transaction)) {
	for h, e := range p.byHash {
		f(h, e.tx)
	}
}

// The pool remembers its proofs. A pooled transaction is immutable, so the
// structural and signature half of its validity (ledger.State.CheckAuth)
// can only change when the state's auth epoch advances; the pool records
// each pass with the epoch it was made at and Candidates re-checks only
// what moves every ledger. A proof is used to build a proposal and for
// nothing else — apply runs the full CheckValid on every transaction — so
// a wrong one could cost this node a proposal, never the ledger's safety.

// Prove checks the pooled transaction's structure and signatures against
// st and remembers a pass. The herder calls it at admission, in the idle
// part of the interval, which also warms the signature cache for apply. A
// failure is not remembered: the node may simply be a ledger behind the
// one that creates the source account.
func (p *Pool) Prove(h stellarcrypto.Hash, st *ledger.State, networkID stellarcrypto.Hash) {
	if e := p.byHash[h]; e != nil && st.CheckAuth(e.tx, networkID) == nil {
		e.proven, e.provenAt = true, st.AuthEpoch()
	}
}

// ForgetProofs voids every remembered proof; the herder calls it when it
// adopts a different ledger state, whose epochs count from zero again.
func (p *Pool) ForgetProofs() {
	for _, e := range p.byHash {
		e.proven = false
	}
}

// Candidates returns the pooled transactions st.CheckValid accepts at
// closeTime — exactly that set — in canonical (source, sequence) order, so
// a proposal never depends on map iteration. An entry whose proof is
// current is checked for sequence number, time bounds, fee and balance
// only; any other runs the full CheckValid, and a pass becomes its proof.
func (p *Pool) Candidates(st *ledger.State, networkID stellarcrypto.Hash, closeTime int64) []*ledger.Transaction {
	epoch := st.AuthEpoch()
	out := make([]*ledger.Transaction, 0, len(p.byHash))
	for _, e := range p.byHash {
		if e.proven && e.provenAt == epoch {
			if st.CheckSeqAndFee(e.tx, closeTime) != nil {
				continue
			}
		} else {
			if st.CheckValid(e.tx, networkID, closeTime) != nil {
				continue
			}
			e.proven, e.provenAt = true, epoch
		}
		out = append(out, e.tx)
	}
	// The pool holds one transaction per (source, sequence): a total order.
	slices.SortFunc(out, func(a, b *ledger.Transaction) int {
		if c := strings.Compare(string(a.Source), string(b.Source)); c != 0 {
			return c
		}
		return cmp.Compare(a.SeqNum, b.SeqNum)
	})
	return out
}

// FloorRate returns the cheapest resident's fee rate as a (fee, ops)
// pair, with ok=false when the pool is empty.
func (p *Pool) FloorRate() (fee ledger.Amount, ops int, ok bool) {
	if len(p.evict) == 0 {
		return 0, 0, false
	}
	worst := p.evict[0]
	return worst.tx.Fee, worst.tx.NumOperations(), true
}

// FeeToEnter returns the smallest total fee that would admit a new
// nops-operation transaction under current fee pressure, or 0 when the
// pool has room (the base-fee minimum governs instead).
func (p *Pool) FeeToEnter(nops int) ledger.Amount {
	if !p.Full() {
		return 0
	}
	fee, fops, ok := p.FloorRate()
	if !ok {
		return 0
	}
	return feeToBeat(fee, fops, nops)
}

// feeToBeat computes the smallest total fee F for an nops-operation
// transaction with F/nops strictly above fee/fops.
func feeToBeat(fee ledger.Amount, fops, nops int) ledger.Amount {
	if fops <= 0 {
		fops = 1
	}
	if nops <= 0 {
		nops = 1
	}
	return fee*ledger.Amount(nops)/ledger.Amount(fops) + 1
}

// rateLess orders entries by fee rate ascending (cheapest first), hash
// descending as the canonical tie-break — the heap root is always the
// next eviction victim and the order never depends on insertion history.
func rateLess(a, b *entry) bool {
	ra := a.tx.Fee * ledger.Amount(b.tx.NumOperations())
	rb := b.tx.Fee * ledger.Amount(a.tx.NumOperations())
	if ra != rb {
		return ra < rb
	}
	return bytes.Compare(a.hash[:], b.hash[:]) > 0
}

// Add runs the admission policy for one transaction. The hash must be
// tx.Hash under the pool's network — the pool never recomputes it.
func (p *Pool) Add(tx *ledger.Transaction, h stellarcrypto.Hash) AddResult {
	if p.byHash[h] != nil {
		return AddResult{Outcome: Duplicate}
	}
	res := AddResult{Outcome: Added}

	// One pending transaction per (source, sequence): a strictly higher
	// fee rate supersedes, anything else is told what it must pay.
	if holder := p.bySource[tx.Source][tx.SeqNum]; holder != nil {
		if !feeRateGreater(tx, holder.tx) {
			return AddResult{
				Outcome:       RejectedSeqConflict,
				MinFeeToEnter: feeToBeat(holder.tx.Fee, holder.tx.NumOperations(), tx.NumOperations()),
			}
		}
		p.remove(holder)
		p.evictions++
		res.Outcome = Replaced
		res.Evicted = append(res.Evicted, EvictedTx{Hash: holder.hash, Tx: holder.tx})
	}

	if len(p.bySource[tx.Source]) >= p.cfg.MaxPerSource {
		return AddResult{Outcome: RejectedSourceCap}
	}

	// Fee-priority eviction: a full pool admits only transactions that
	// strictly beat the floor, evicting the cheapest resident.
	for len(p.byHash) >= p.cfg.MaxTxs {
		worst := p.evict[0]
		if !feeRateGreater(tx, worst.tx) {
			res := AddResult{
				Outcome:       RejectedFull,
				MinFeeToEnter: feeToBeat(worst.tx.Fee, worst.tx.NumOperations(), tx.NumOperations()),
			}
			return res
		}
		p.remove(worst)
		p.evictions++
		res.Evicted = append(res.Evicted, EvictedTx{Hash: worst.hash, Tx: worst.tx})
	}

	e := &entry{tx: tx, hash: h}
	p.byHash[h] = e
	seqs := p.bySource[tx.Source]
	if seqs == nil {
		seqs = make(map[uint64]*entry)
		p.bySource[tx.Source] = seqs
	}
	seqs[tx.SeqNum] = e
	heap.Push(&p.evict, e)
	return res
}

// feeRateGreater reports whether a's fee per operation strictly exceeds
// b's (cross-product comparison, no division).
func feeRateGreater(a, b *ledger.Transaction) bool {
	return a.Fee*ledger.Amount(b.NumOperations()) > b.Fee*ledger.Amount(a.NumOperations())
}

// Remove drops one transaction by hash (e.g. after it applied).
func (p *Pool) Remove(h stellarcrypto.Hash) {
	if e := p.byHash[h]; e != nil {
		p.remove(e)
	}
}

// remove unlinks an entry from all three indexes.
func (p *Pool) remove(e *entry) {
	delete(p.byHash, e.hash)
	if seqs := p.bySource[e.tx.Source]; seqs != nil {
		delete(seqs, e.tx.SeqNum)
		if len(seqs) == 0 {
			delete(p.bySource, e.tx.Source)
		}
	}
	heap.Remove(&p.evict, e.index)
}

// PruneStale removes every transaction for which stale returns true —
// applied or superseded transactions after a ledger close — and returns
// them in canonical (ascending hash) order so downstream bookkeeping is
// deterministic.
func (p *Pool) PruneStale(stale func(tx *ledger.Transaction) bool) []EvictedTx {
	var victims []EvictedTx
	for _, e := range p.byHash {
		if stale(e.tx) {
			victims = append(victims, EvictedTx{Hash: e.hash, Tx: e.tx})
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		return bytes.Compare(victims[i].Hash[:], victims[j].Hash[:]) < 0
	})
	for _, v := range victims {
		p.remove(p.byHash[v.Hash])
	}
	return victims
}

// evictHeap is a min-heap over fee rate (see rateLess).
type evictHeap []*entry

func (h evictHeap) Len() int           { return len(h) }
func (h evictHeap) Less(i, j int) bool { return rateLess(h[i], h[j]) }
func (h evictHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *evictHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *evictHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
