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
	"container/heap"
	"slices"
	"sort"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// Defaults. The pool bound is far above any surge-priced ledger (so the
// pool absorbs several ledgers of backlog before pushing back) and the
// per-source cap keeps one key from filling the pool while leaving room
// for the chain a client keeps pending.
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

// entry is a pooled transaction and everything the pool knows about it:
// one allocation per transaction, reached from byHash, the eviction heap and
// its source's chain.
type entry struct {
	tx   *ledger.Transaction
	hash stellarcrypto.Hash
	// next is the same source's pending transaction with the next higher
	// sequence number; nil at the end of the chain.
	next *entry
	// admitted is when the node admitted the transaction (AddAt), on the
	// clock of its network environment.
	admitted time.Duration
	index    int // position in the eviction heap
	// proven records that tx passed ledger.State.CheckAuth when the
	// state's auth epoch was provenAt (Prove, Candidates).
	provenAt uint64
	proven   bool
	// taken records that TakeAdmittedAt has handed admitted out.
	taken bool
}

// Pool is the bounded fee-priority pending set. It is not internally
// synchronized: like the rest of the herder it relies on the network
// environment's single-threaded event loop.
type Pool struct {
	cfg    Config
	byHash map[stellarcrypto.Hash]*entry
	// bySource holds each source's pending transaction with the lowest
	// sequence number, the head of its chain in ascending sequence order.
	bySource map[ledger.AccountID]*entry
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
		bySource: make(map[ledger.AccountID]*entry),
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

// TakeAdmittedAt returns the admission time AddAt recorded for the pooled
// transaction, once: ok is false when it is not pooled or its time was
// taken before. A transaction that applies without leaving the pool is so
// observed at most once however many sets carry it.
func (p *Pool) TakeAdmittedAt(h stellarcrypto.Hash) (at time.Duration, ok bool) {
	e := p.byHash[h]
	if e == nil || e.taken {
		return 0, false
	}
	e.taken = true
	return e.admitted, true
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

// Prove records verdict, the caller's st.CheckAuth of the pooled
// transaction against st as it stands, and remembers a pass at st's auth
// epoch. The herder takes the verdict at admission, in the idle part of
// the interval, which also warms the signature cache for apply. A failure
// is not remembered: the node may simply be a ledger behind the one that
// creates the source account.
func (p *Pool) Prove(h stellarcrypto.Hash, st *ledger.State, verdict error) {
	if e := p.byHash[h]; e != nil && verdict == nil {
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

// Candidates returns what this pool proposes at closeTime: each source's
// pooled chain cut to its valid prefix (ledger.State.ValidChain), and within
// it to the entries before the first that fails CheckAuth, in canonical
// (source, sequence) order, so a proposal never depends on map iteration.
// An entry whose proof is current skips CheckAuth; any other runs it, and a
// pass becomes its proof. An entry the account has used stops its source's
// chain until PruneStale drops it, so the owner prunes wherever its ledger
// state moves.
func (p *Pool) Candidates(st *ledger.State, networkID stellarcrypto.Hash, closeTime int64) []*ledger.Transaction {
	epoch := st.AuthEpoch()
	out := make([]*ledger.Transaction, 0, len(p.byHash))
	var chain []*ledger.Transaction
	for _, head := range p.bySource {
		chain = chain[:0]
		for e := head; e != nil; e = e.next {
			chain = append(chain, e.tx)
		}
		k, _ := st.ValidChain(chain, closeTime)
		for e := head; k > 0; e, k = e.next, k-1 {
			if !e.provenBy(epoch) {
				if st.CheckAuth(e.tx, networkID) != nil {
					break
				}
				e.proven, e.provenAt = true, epoch
			}
			out = append(out, e.tx)
		}
	}
	// The pool holds one transaction per (source, sequence): a total order.
	slices.SortFunc(out, ledger.ChainOrder)
	return out
}

// provenBy reports whether the entry's proof stands at the auth epoch.
func (e *entry) provenBy(epoch uint64) bool { return e.proven && e.provenAt == epoch }

// Proven reports whether tx is the pooled instance under hash h and its
// proof stands at st's auth epoch: CheckAuth would pass it.
func (p *Pool) Proven(tx *ledger.Transaction, h stellarcrypto.Hash, st *ledger.State) bool {
	e := p.byHash[h]
	return e != nil && e.tx == tx && e.provenBy(st.AuthEpoch())
}

// Chain returns src's pooled transactions with a sequence number below
// below, in ascending sequence order: what a transaction at below would
// follow.
func (p *Pool) Chain(src ledger.AccountID, below uint64) []*ledger.Transaction {
	var chain []*ledger.Transaction
	for e := p.bySource[src]; e != nil && e.tx.SeqNum < below; e = e.next {
		chain = append(chain, e.tx)
	}
	return chain
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

// Add is AddAt for a caller that keeps no admission times.
func (p *Pool) Add(tx *ledger.Transaction, h stellarcrypto.Hash) AddResult {
	return p.AddAt(tx, h, 0)
}

// AddAt runs the admission policy for one transaction and, when it is
// admitted, records at as its admission time (TakeAdmittedAt). The hash must
// be tx.Hash under the pool's network — the pool never recomputes it.
func (p *Pool) AddAt(tx *ledger.Transaction, h stellarcrypto.Hash, at time.Duration) AddResult {
	if p.byHash[h] != nil {
		return AddResult{Outcome: Duplicate}
	}
	res := AddResult{Outcome: Added}

	pending := 0
	var holder *entry
	for e := p.bySource[tx.Source]; e != nil; e = e.next {
		if e.tx.SeqNum == tx.SeqNum {
			holder = e
		}
		pending++
	}
	// One pending transaction per (source, sequence): a strictly higher
	// fee rate supersedes, anything else is told what it must pay.
	if holder != nil {
		if !feeRateGreater(tx, holder.tx) {
			return AddResult{
				Outcome:       RejectedSeqConflict,
				MinFeeToEnter: feeToBeat(holder.tx.Fee, holder.tx.NumOperations(), tx.NumOperations()),
			}
		}
		p.remove(holder)
		pending--
		p.evictions++
		res.Outcome = Replaced
		res.Evicted = append(res.Evicted, EvictedTx{Hash: holder.hash, Tx: holder.tx})
	}

	if pending >= p.cfg.MaxPerSource {
		return AddResult{Outcome: RejectedSourceCap}
	}

	// Fee-priority eviction: a full pool admits only transactions that
	// strictly beat the floor, evicting the cheapest resident.
	for len(p.byHash) >= p.cfg.MaxTxs {
		worst := p.evict[0]
		if !feeRateGreater(tx, worst.tx) {
			return AddResult{
				Outcome:       RejectedFull,
				MinFeeToEnter: feeToBeat(worst.tx.Fee, worst.tx.NumOperations(), tx.NumOperations()),
			}
		}
		p.remove(worst)
		p.evictions++
		res.Evicted = append(res.Evicted, EvictedTx{Hash: worst.hash, Tx: worst.tx})
	}

	e := &entry{tx: tx, hash: h, admitted: at}
	p.byHash[h] = e
	p.link(e)
	heap.Push(&p.evict, e)
	return res
}

// link inserts e into its source's chain, which holds no entry with its
// sequence number.
func (p *Pool) link(e *entry) {
	head := p.bySource[e.tx.Source]
	if head == nil || e.tx.SeqNum < head.tx.SeqNum {
		e.next = head
		p.bySource[e.tx.Source] = e
		return
	}
	prev := head
	for prev.next != nil && prev.next.tx.SeqNum < e.tx.SeqNum {
		prev = prev.next
	}
	e.next, prev.next = prev.next, e
}

// unlink takes e out of its source's chain.
func (p *Pool) unlink(e *entry) {
	head := p.bySource[e.tx.Source]
	switch {
	case head == e && e.next == nil:
		delete(p.bySource, e.tx.Source)
	case head == e:
		p.bySource[e.tx.Source] = e.next
	default:
		prev := head
		for prev.next != e {
			prev = prev.next
		}
		prev.next = e.next
	}
	e.next = nil
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

// remove takes an entry out of all three indexes.
func (p *Pool) remove(e *entry) {
	delete(p.byHash, e.hash)
	p.unlink(e)
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
