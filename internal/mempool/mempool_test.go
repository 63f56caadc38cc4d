package mempool

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
)

// tx builds a minimal transaction with nops payment operations. Tests
// hash with a zero network ID; the pool only needs hashes to be unique
// and stable.
func tx(source string, seq uint64, fee ledger.Amount, nops int) (*ledger.Transaction, stellarcrypto.Hash) {
	ops := make([]ledger.Operation, nops)
	for i := range ops {
		ops[i] = ledger.Operation{Body: &ledger.Payment{
			Destination: "dest",
			Amount:      ledger.Amount(1 + i),
		}}
	}
	t := &ledger.Transaction{
		Source:     ledger.AccountID(source),
		Fee:        fee,
		SeqNum:     seq,
		Operations: ops,
	}
	return t, t.Hash(stellarcrypto.Hash{})
}

func mustAdd(t *testing.T, p *Pool, source string, seq uint64, fee ledger.Amount, nops int) stellarcrypto.Hash {
	t.Helper()
	txn, h := tx(source, seq, fee, nops)
	res := p.Add(txn, h)
	if !res.Outcome.Admitted() {
		t.Fatalf("Add(%s seq=%d fee=%d): outcome %v, want admitted", source, seq, fee, res.Outcome)
	}
	return h
}

func TestAddDuplicateAndContains(t *testing.T) {
	p := New(Config{})
	txn, h := tx("alice", 1, 100, 1)
	if res := p.Add(txn, h); res.Outcome != Added {
		t.Fatalf("first add: %v", res.Outcome)
	}
	if res := p.Add(txn, h); res.Outcome != Duplicate {
		t.Fatalf("second add: %v, want Duplicate", res.Outcome)
	}
	if !p.Contains(h) || p.Len() != 1 {
		t.Fatalf("Contains=%v Len=%d", p.Contains(h), p.Len())
	}
	if got := p.Get(h); got != txn {
		t.Fatalf("Get returned %v", got)
	}
}

func TestPerSourceCap(t *testing.T) {
	p := New(Config{MaxPerSource: 3})
	for seq := uint64(1); seq <= 3; seq++ {
		mustAdd(t, p, "alice", seq, 100, 1)
	}
	txn, h := tx("alice", 4, 1000, 1)
	res := p.Add(txn, h)
	if res.Outcome != RejectedSourceCap {
		t.Fatalf("outcome %v, want RejectedSourceCap", res.Outcome)
	}
	if res.MinFeeToEnter != 0 {
		t.Fatalf("MinFeeToEnter=%d, want 0 (no fee helps a capped source)", res.MinFeeToEnter)
	}
	// A different source is unaffected.
	mustAdd(t, p, "bob", 1, 100, 1)
}

func TestSeqConflictAndReplaceByFee(t *testing.T) {
	p := New(Config{})
	h1 := mustAdd(t, p, "alice", 1, 100, 1)

	// Same (source, seq) at the same fee rate: rejected with the fee to beat.
	txn2, h2 := tx("alice", 1, 100, 2) // rate 50 < 100
	res := p.Add(txn2, h2)
	if res.Outcome != RejectedSeqConflict {
		t.Fatalf("outcome %v, want RejectedSeqConflict", res.Outcome)
	}
	// Beating rate 100/op with 2 ops needs fee 201.
	if res.MinFeeToEnter != 201 {
		t.Fatalf("MinFeeToEnter=%d, want 201", res.MinFeeToEnter)
	}

	// Strictly higher fee rate supersedes the holder.
	txn3, h3 := tx("alice", 1, 201, 2)
	res = p.Add(txn3, h3)
	if res.Outcome != Replaced {
		t.Fatalf("outcome %v, want Replaced", res.Outcome)
	}
	if len(res.Evicted) != 1 || res.Evicted[0].Hash != h1 {
		t.Fatalf("Evicted=%v, want the original holder", res.Evicted)
	}
	if p.Contains(h1) || !p.Contains(h3) || p.Len() != 1 {
		t.Fatalf("replace left pool in bad state: len=%d", p.Len())
	}
	if p.Evictions() != 1 {
		t.Fatalf("Evictions=%d, want 1", p.Evictions())
	}
}

func TestFullPoolEvictsCheapest(t *testing.T) {
	p := New(Config{MaxTxs: 3})
	hCheap := mustAdd(t, p, "a", 1, 100, 1)
	mustAdd(t, p, "b", 1, 200, 1)
	mustAdd(t, p, "c", 1, 300, 1)

	// Equal-to-floor fee rate: rejected, told to strictly beat the floor.
	txn, h := tx("d", 1, 100, 1)
	res := p.Add(txn, h)
	if res.Outcome != RejectedFull {
		t.Fatalf("outcome %v, want RejectedFull", res.Outcome)
	}
	if res.MinFeeToEnter != 101 {
		t.Fatalf("MinFeeToEnter=%d, want 101", res.MinFeeToEnter)
	}
	if p.FeeToEnter(1) != 101 {
		t.Fatalf("FeeToEnter(1)=%d, want 101", p.FeeToEnter(1))
	}

	// Strictly above the floor: admitted, cheapest resident evicted.
	txn2, h2 := tx("d", 1, 101, 1)
	res = p.Add(txn2, h2)
	if res.Outcome != Added {
		t.Fatalf("outcome %v, want Added", res.Outcome)
	}
	if len(res.Evicted) != 1 || res.Evicted[0].Hash != hCheap {
		t.Fatalf("Evicted=%v, want cheapest resident", res.Evicted)
	}
	if p.Contains(hCheap) || !p.Contains(h2) || p.Len() != 3 {
		t.Fatalf("eviction left pool in bad state: len=%d", p.Len())
	}
	// The floor moved up.
	if fee, ops, ok := p.FloorRate(); !ok || fee != 101 || ops != 1 {
		t.Fatalf("FloorRate=(%d,%d,%v), want (101,1,true)", fee, ops, ok)
	}
}

func TestFeeRateCrossProduct(t *testing.T) {
	// A 2-op tx at fee 300 (rate 150) must outrank a 1-op tx at fee 100.
	p := New(Config{MaxTxs: 2})
	hLow := mustAdd(t, p, "a", 1, 100, 1) // rate 100
	mustAdd(t, p, "b", 1, 300, 2)         // rate 150
	txn, h := tx("c", 1, 260, 2)          // rate 130: beats 100, not 150
	res := p.Add(txn, h)
	if res.Outcome != Added || len(res.Evicted) != 1 || res.Evicted[0].Hash != hLow {
		t.Fatalf("res=%+v, want Added evicting the rate-100 tx", res)
	}
	// FeeToEnter for a 3-op tx over floor rate 130 (260/2): 260*3/2+1 = 391.
	if got := p.FeeToEnter(3); got != 391 {
		t.Fatalf("FeeToEnter(3)=%d, want 391", got)
	}
}

func TestEvictionTieBreakIsCanonical(t *testing.T) {
	// Two residents at the same fee rate: the one with the
	// lexicographically larger hash is evicted first, regardless of
	// insertion order.
	run := func(order []int) stellarcrypto.Hash {
		p := New(Config{MaxTxs: 2})
		txs := make([]*ledger.Transaction, 2)
		hs := make([]stellarcrypto.Hash, 2)
		txs[0], hs[0] = tx("a", 1, 100, 1)
		txs[1], hs[1] = tx("b", 1, 100, 1)
		for _, i := range order {
			p.Add(txs[i], hs[i])
		}
		txn, h := tx("c", 1, 200, 1)
		res := p.Add(txn, h)
		if res.Outcome != Added || len(res.Evicted) != 1 {
			t.Fatalf("res=%+v", res)
		}
		return res.Evicted[0].Hash
	}
	v1 := run([]int{0, 1})
	v2 := run([]int{1, 0})
	if v1 != v2 {
		t.Fatalf("eviction victim depends on insertion order: %x vs %x", v1[:4], v2[:4])
	}
	_, hA := tx("a", 1, 100, 1)
	_, hB := tx("b", 1, 100, 1)
	want := hA
	if bytes.Compare(hB[:], hA[:]) > 0 {
		want = hB
	}
	if v1 != want {
		t.Fatalf("victim %x, want larger hash %x", v1[:4], want[:4])
	}
}

func TestRemove(t *testing.T) {
	p := New(Config{})
	mustAdd(t, p, "alice", 1, 100, 1)
	h2 := mustAdd(t, p, "alice", 2, 100, 1)
	mustAdd(t, p, "alice", 5, 100, 1)

	p.Remove(h2)
	if p.Contains(h2) || p.Len() != 2 {
		t.Fatalf("Remove failed: len=%d", p.Len())
	}
	p.Remove(h2) // idempotent
	if p.Len() != 2 {
		t.Fatalf("double Remove changed len=%d", p.Len())
	}
}

func TestPruneStaleCanonicalOrder(t *testing.T) {
	p := New(Config{})
	var staleHashes []stellarcrypto.Hash
	for i := 0; i < 8; i++ {
		h := mustAdd(t, p, fmt.Sprintf("acct%d", i), 1, 100, 1)
		if i%2 == 0 {
			staleHashes = append(staleHashes, h)
		}
	}
	victims := p.PruneStale(func(tx *ledger.Transaction) bool {
		return tx.Source[len(tx.Source)-1]%2 == 0 // acct0, acct2, ...
	})
	if len(victims) != len(staleHashes) {
		t.Fatalf("pruned %d, want %d", len(victims), len(staleHashes))
	}
	if !sort.SliceIsSorted(victims, func(i, j int) bool {
		return bytes.Compare(victims[i].Hash[:], victims[j].Hash[:]) < 0
	}) {
		t.Fatal("PruneStale victims not in ascending hash order")
	}
	if p.Len() != 4 {
		t.Fatalf("len=%d after prune, want 4", p.Len())
	}
	for _, h := range staleHashes {
		if p.Contains(h) {
			t.Fatalf("stale tx %x still pooled", h[:4])
		}
	}
}

func TestFeeToEnterZeroWhenNotFull(t *testing.T) {
	p := New(Config{MaxTxs: 4})
	mustAdd(t, p, "a", 1, 100, 1)
	if got := p.FeeToEnter(1); got != 0 {
		t.Fatalf("FeeToEnter on non-full pool = %d, want 0", got)
	}
	if _, _, ok := New(Config{}).FloorRate(); ok {
		t.Fatal("FloorRate on empty pool should be !ok")
	}
}

func TestDefaults(t *testing.T) {
	p := New(Config{})
	if p.Cap() != DefaultMaxTxs || p.PerSourceCap() != DefaultMaxPerSource {
		t.Fatalf("defaults: cap=%d perSource=%d", p.Cap(), p.PerSourceCap())
	}
	if p.Full() {
		t.Fatal("empty pool reports Full")
	}
}

// TestHeapInvariantUnderChurn hammers the pool with a deterministic
// add/remove/prune mix and cross-checks the floor against a linear scan.
func TestHeapInvariantUnderChurn(t *testing.T) {
	p := New(Config{MaxTxs: 32, MaxPerSource: 4})
	var live []stellarcrypto.Hash
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for i := 0; i < 2000; i++ {
		switch next(4) {
		case 0, 1, 2:
			src := fmt.Sprintf("s%d", next(16))
			txn, h := tx(src, 1+next(8), ledger.Amount(100+next(900)), int(1+next(3)))
			res := p.Add(txn, h)
			if res.Outcome.Admitted() {
				live = append(live, h)
			}
		case 3:
			if len(live) > 0 {
				i := int(next(uint64(len(live))))
				p.Remove(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
		// The heap root must be the true minimum fee rate.
		if fee, ops, ok := p.FloorRate(); ok {
			p.Each(func(h stellarcrypto.Hash, tx *ledger.Transaction) {
				if tx.Fee*ledger.Amount(ops) < fee*ledger.Amount(tx.NumOperations()) {
					t.Fatalf("iter %d: floor (%d,%d) above resident fee=%d ops=%d",
						i, fee, ops, tx.Fee, tx.NumOperations())
				}
			})
		}
		if p.Len() > p.Cap() {
			t.Fatalf("pool exceeded cap: %d > %d", p.Len(), p.Cap())
		}
	}
}

// TestProofsSpareTheSignatureCheck drives the proof life cycle against a
// real state: a proven entry costs Candidates no signature lookup; an
// entry whose proof was forgotten, or made before the auth epoch moved, is
// checked in full again and — still passing — proven anew; and an entry
// that cannot be proven is offered only once full validation accepts it.
func TestProofsSpareTheSignatureCheck(t *testing.T) {
	nid := stellarcrypto.HashBytes([]byte("mempool-proof-test"))
	master := stellarcrypto.KeyPairFromString("mempool-proof-master")
	masterID := ledger.AccountIDFromPublicKey(master.Public)
	st := ledger.NewGenesisState(masterID)
	v := verify.New(1, 64)
	st.SetVerifier(v)
	lookups := func() uint64 { s := v.Cache.Stats(); return s.Hits + s.Misses }

	ghost := stellarcrypto.KeyPairFromString("mempool-proof-ghost")
	ghostID := ledger.AccountIDFromPublicKey(ghost.Public)
	pay := &ledger.Transaction{Source: masterID, Fee: 100, SeqNum: 1,
		Operations: []ledger.Operation{{Body: &ledger.CreateAccount{Destination: ghostID, StartingBalance: 100 * ledger.One}}}}
	pay.Sign(nid, master)
	early := &ledger.Transaction{Source: ghostID, Fee: 100, SeqNum: 1<<32 + 1,
		Operations: []ledger.Operation{{Body: &ledger.BumpSequence{BumpTo: 1}}}}
	early.Sign(nid, ghost)

	p := New(Config{})
	for _, txn := range []*ledger.Transaction{pay, early} {
		h := txn.Seal(nid)
		p.Add(txn, h)
		p.Prove(h, st, st.CheckAuth(txn, nid)) // early's source does not exist yet: no proof
	}
	candidates := func(wantLookups uint64, want ...*ledger.Transaction) {
		t.Helper()
		before := lookups()
		got := p.Candidates(st, nid, 10)
		if len(got) != len(want) {
			t.Fatalf("Candidates returned %d transactions, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("candidate %d is not the expected transaction", i)
			}
		}
		if d := lookups() - before; d != wantLookups {
			t.Fatalf("Candidates looked up %d signatures, want %d", d, wantLookups)
		}
	}
	candidates(0, pay) // pay rides its proof; early fails before its signature matters
	p.ForgetProofs()
	candidates(1, pay) // full check, proven again
	candidates(0, pay)

	st.ApplyTxSet(&ledger.TxSet{Txs: []*ledger.Transaction{pay}}, nid, &ledger.ApplyEnv{LedgerSeq: 1, CloseTime: 10})
	p.Remove(pay.Hash(nid))
	candidates(1, early) // its source exists now: full check passes and is remembered
	candidates(0, early)

	// Zeroing the master weight advances the epoch: the remembered pass is
	// void, the full check runs, and early is no longer offered.
	zero := uint8(0)
	brick := &ledger.Transaction{Source: ghostID, Fee: 100, SeqNum: 1<<32 + 1,
		Operations: []ledger.Operation{{Body: &ledger.SetOptions{MasterWeight: &zero}}}}
	brick.Sign(nid, ghost)
	epoch := st.AuthEpoch()
	st.ApplyTxSet(&ledger.TxSet{Txs: []*ledger.Transaction{brick}}, nid, &ledger.ApplyEnv{LedgerSeq: 2, CloseTime: 11})
	if st.AuthEpoch() == epoch {
		t.Fatal("SetOptions on the master weight did not advance the auth epoch")
	}
	late := &ledger.Transaction{Source: ghostID, Fee: 100, SeqNum: 1<<32 + 2,
		Operations: []ledger.Operation{{Body: &ledger.BumpSequence{BumpTo: 1}}}}
	late.Sign(nid, ghost)
	p.Add(late, late.Seal(nid))
	// early is stale by sequence and would stop the source's chain; the
	// close prunes it, as the herder's does wherever its state moves.
	p.PruneStale(func(tx *ledger.Transaction) bool { return tx.SeqNum <= st.Account(tx.Source).SeqNum })
	candidates(1) // late: the lookup hits, the weight is gone
}

// TestPoolBytesPerTransaction bounds what the pool adds to the heap per
// pending transaction on top of the transaction itself: its entry, admission
// time included, its byHash slot, its heap slot and its source's chain head.
// It pools 2 000 one-payment transactions from distinct sources, each
// decoded from its wire bytes and sealed as a flood arrives, and reads
// HeapAlloc after a collection before and after.
func TestPoolBytesPerTransaction(t *testing.T) {
	const n = 2000
	nid := stellarcrypto.HashBytes([]byte("mempool-footprint"))
	signer := stellarcrypto.KeyPairFromString("mempool-footprint-signer")
	txs := make([]*ledger.Transaction, n)
	hs := make([]stellarcrypto.Hash, n)
	for i := range txs {
		src := ledger.AccountIDFromPublicKey(stellarcrypto.KeyPairFromString(fmt.Sprintf("footprint-%d", i)).Public)
		txn := &ledger.Transaction{Source: src, Fee: 100, SeqNum: 1<<32 + 1,
			Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: src, Amount: ledger.One}}}}
		txn.Sign(nid, signer)
		decoded, err := ledger.DecodeSignedTransactionXDR(txn.MarshalSignedXDR())
		if err != nil {
			t.Fatal(err)
		}
		txs[i], hs[i] = decoded, decoded.Seal(nid)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := New(Config{})
	for i := range txs {
		if res := p.AddAt(txs[i], hs[i], time.Duration(i)); res.Outcome != Added {
			t.Fatalf("tx %d: %v", i, res.Outcome)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perTx := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(txs)
	runtime.KeepAlive(p)
	t.Logf("pool bookkeeping: %.0f B per pooled payment", perTx)
	if perTx > 300 {
		t.Fatalf("pool holds %.0f B per pooled payment beyond the transactions, want ≤ 300", perTx)
	}
}
