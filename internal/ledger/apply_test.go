package ledger

import (
	"fmt"
	"testing"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

func TestTxSetHashOrderIndependent(t *testing.T) {
	c := newTestChain(t)
	alice := c.fund("ts-alice", 100*One)
	nid := c.networkID
	mk := func(seq uint64) *Transaction {
		tx := &Transaction{
			Source: alice, Fee: DefaultBaseFee, SeqNum: seq,
			Operations: []Operation{{Body: &Payment{Destination: c.master, Asset: NativeAsset(), Amount: One}}},
		}
		tx.Sign(nid, c.keys[alice])
		return tx
	}
	t1, t2 := mk(10), mk(11)
	a := (&TxSet{Txs: []*Transaction{t1, t2}}).Hash(nid)
	b := (&TxSet{Txs: []*Transaction{t2, t1}}).Hash(nid)
	if a != b {
		t.Fatal("tx set hash depends on order")
	}
	cHash := (&TxSet{Txs: []*Transaction{t1}}).Hash(nid)
	if a == cHash {
		t.Fatal("different sets hash equal")
	}
}

func TestTxSetHashCoversPrevLedger(t *testing.T) {
	ts := &TxSet{PrevLedgerHash: stellarcrypto.HashBytes([]byte("l1"))}
	ts2 := &TxSet{PrevLedgerHash: stellarcrypto.HashBytes([]byte("l2"))}
	nid := stellarcrypto.Hash{}
	if ts.Hash(nid) == ts2.Hash(nid) {
		t.Fatal("tx set hash ignores previous ledger")
	}
}

func TestSortForApplyRespectsSequence(t *testing.T) {
	c := newTestChain(t)
	alice := c.fund("sfa-alice", 100*One)
	src := c.st.Account(alice)
	var txs []*Transaction
	for i := uint64(3); i > 0; i-- { // deliberately reversed
		tx := &Transaction{
			Source: alice, Fee: DefaultBaseFee, SeqNum: src.SeqNum + i,
			Operations: []Operation{{Body: &Payment{Destination: c.master, Asset: NativeAsset(), Amount: One}}},
		}
		tx.Sign(c.networkID, c.keys[alice])
		txs = append(txs, tx)
	}
	ts := &TxSet{Txs: txs}
	sorted := ts.SortForApply(c.networkID)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].SeqNum <= sorted[i-1].SeqNum {
			t.Fatal("same-account txs not in sequence order")
		}
	}
	// Applying the whole set succeeds for all three.
	results, _ := c.st.ApplyTxSet(ts, c.networkID, &c.env)
	for i, r := range results {
		if !r.Success {
			t.Fatalf("tx %d failed: %q", i, r.Err)
		}
	}
}

func TestApplyTxSetResultsHashDeterministic(t *testing.T) {
	build := func() (*State, *TxSet, stellarcrypto.Hash, ApplyEnv) {
		c := newTestChain(t)
		alice := c.fund("rh-alice", 100*One)
		src := c.st.Account(alice)
		tx := &Transaction{
			Source: alice, Fee: DefaultBaseFee, SeqNum: src.SeqNum + 1,
			Operations: []Operation{{Body: &Payment{Destination: c.master, Asset: NativeAsset(), Amount: One}}},
		}
		tx.Sign(c.networkID, c.keys[alice])
		return c.st, &TxSet{Txs: []*Transaction{tx}}, c.networkID, c.env
	}
	s1, ts1, nid, env := build()
	_, h1 := s1.ApplyTxSet(ts1, nid, &env)
	s2, ts2, nid2, env2 := build()
	_, h2 := s2.ApplyTxSet(ts2, nid2, &env2)
	if h1 != h2 {
		t.Fatal("results hash nondeterministic")
	}
}

func TestSurgePricePrefersHighFeeRate(t *testing.T) {
	mk := func(src AccountID, fee Amount, nops int) *Transaction {
		ops := make([]Operation, nops)
		for i := range ops {
			ops[i] = Operation{Body: &BumpSequence{}}
		}
		return &Transaction{Source: src, Fee: fee, SeqNum: 1, Operations: ops}
	}
	cheap := mk("cheap", 100, 1)
	rich := mk("rich", 1000, 1)
	bulk := mk("bulk", 500, 5) // rate 100/op
	out := SurgePrice([]*Transaction{cheap, rich, bulk}, 2)
	if len(out) != 2 {
		t.Fatalf("kept %d txs", len(out))
	}
	if out[0] != rich {
		t.Fatal("highest fee rate not first")
	}
	// Capacity 2 ops: rich (1) + cheap (1); bulk (5 ops) cannot fit.
	for _, tx := range out {
		if tx == bulk {
			t.Fatal("oversized tx kept under congestion")
		}
	}
}

func TestHeaderHashChain(t *testing.T) {
	c := newTestChain(t)
	g := GenesisHeader(c.st, 1000)
	gh := g.Hash()
	next := NextHeader(g, gh)
	if next.LedgerSeq != 2 || next.PrevHash() != gh {
		t.Fatalf("chain broken: %+v", next)
	}
	e := xdr.NewEncoder(0)
	next.EncodeXDR(e)
	if e.Len() != HeaderXDRLen {
		t.Fatalf("a header encodes in %d bytes, HeaderXDRLen says %d", e.Len(), HeaderXDRLen)
	}
	// Mutating any field changes the hash.
	h1 := next.Hash()
	next.CloseTime = 9999
	if next.Hash() == h1 {
		t.Fatal("hash ignores close time")
	}
}

func TestHeaderSkiplist(t *testing.T) {
	c := newTestChain(t)
	hashes := map[uint32]stellarcrypto.Hash{}
	g := GenesisHeader(c.st, 1000)
	hashes[1] = g.Hash()
	prev := g
	for seq := uint32(2); seq <= 3*SkipStride+2; seq++ {
		h := NextHeader(prev, hashes[seq-1])
		hashes[seq] = h.Hash()
		prev = h
	}
	// After three stride rotations, slot 0 references the most recent
	// stride boundary and slot 1 the one before it.
	if prev.SkipList[0] != hashes[3*SkipStride] {
		t.Fatal("skiplist slot 0 should reference the last stride boundary")
	}
	if prev.SkipList[1] != hashes[2*SkipStride] {
		t.Fatal("skiplist slot 1 should reference the previous stride boundary")
	}
	// Determinism: a node knowing only (prev header, prev hash) computes
	// the identical next header — the property catch-up relies on.
	alt := NextHeader(prev, hashes[3*SkipStride+1])
	alt2 := NextHeader(prev, hashes[3*SkipStride+1])
	if alt.Hash() != alt2.Hash() {
		t.Fatal("NextHeader not deterministic")
	}
}

func TestDirtySnapshotTracksChanges(t *testing.T) {
	c := newTestChain(t)
	c.st.TakeDirtySnapshot() // clear genesis + fixture noise
	alice := c.fund("dirty-alice", 100*One)
	entries := c.st.TakeDirtySnapshot()
	// Master (fee+debit) and alice (created) changed.
	keys := map[string]bool{}
	for _, e := range entries {
		keys[e.Key] = true
		if e.Data == nil {
			t.Fatalf("unexpected tombstone for %s", e.Key)
		}
	}
	if !keys[accountKey(alice)] || !keys[accountKey(c.master)] {
		t.Fatalf("dirty keys missing: %v", keys)
	}
	// Second snapshot is empty.
	if n := len(c.st.TakeDirtySnapshot()); n != 0 {
		t.Fatalf("dirty set not cleared: %d entries", n)
	}
}

func TestDirtySnapshotTombstones(t *testing.T) {
	c := newTestChain(t)
	alice := c.fund("tomb-alice", 50*One)
	c.st.TakeDirtySnapshot()
	c.mustOK(c.tx(alice, Operation{Body: &AccountMerge{Destination: c.master}}))
	entries := c.st.TakeDirtySnapshot()
	var sawTombstone bool
	for _, e := range entries {
		if e.Key == accountKey(alice) && e.Data == nil {
			sawTombstone = true
		}
	}
	if !sawTombstone {
		t.Fatal("merged account has no tombstone")
	}
}

func TestSnapshotAllCoversEverything(t *testing.T) {
	m := newMarket(t)
	m.mustOK(m.tx(m.mm, Operation{Body: &ManageOffer{
		Selling: m.eur, Buying: m.usd, Amount: 10 * One, Price: MustPrice(1, 1),
	}}))
	m.mustOK(m.tx(m.mm, Operation{Body: &ManageData{Name: "k", Value: []byte("v")}}))
	entries := m.st.SnapshotAll()
	want := m.st.NumAccounts() + m.st.NumTrustlines() + m.st.NumOffers() + m.st.NumData()
	if len(entries) != want {
		t.Fatalf("snapshot has %d entries, want %d", len(entries), want)
	}
	// Sorted by key.
	for i := 1; i < len(entries); i++ {
		if entries[i].Key < entries[i-1].Key {
			t.Fatal("snapshot not sorted")
		}
	}
}

func TestCheckValidRejectsGarbage(t *testing.T) {
	c := newTestChain(t)
	alice := c.fund("cv-alice", 100*One)
	if err := c.st.CheckValid(&Transaction{Source: alice}, c.networkID, 0); err == nil {
		t.Fatal("empty tx accepted")
	}
	ops := make([]Operation, 101)
	for i := range ops {
		ops[i] = Operation{Body: &BumpSequence{}}
	}
	if err := c.st.CheckValid(&Transaction{Source: alice, Operations: ops}, c.networkID, 0); err == nil {
		t.Fatal("101-op tx accepted")
	}
}

func TestSortForApplyOrderIndependent(t *testing.T) {
	// TxSet.Hash is order-insensitive, so two nodes can hold the same
	// logical set in different slice orders; application must still be
	// identical (a divergence here once split a simulated network).
	c := newTestChain(t)
	accounts := make([]AccountID, 3)
	for i := range accounts {
		accounts[i] = c.fund(fmt.Sprintf("order-%d", i), 100*One)
	}
	var txs []*Transaction
	for _, acct := range accounts {
		seq := c.st.Account(acct).SeqNum
		for k := uint64(1); k <= 2; k++ {
			tx := &Transaction{
				Source: acct, Fee: DefaultBaseFee, SeqNum: seq + k,
				Operations: []Operation{{Body: &Payment{
					Destination: c.master, Asset: NativeAsset(), Amount: One,
				}}},
			}
			tx.Sign(c.networkID, c.keys[acct])
			txs = append(txs, tx)
		}
	}
	fwd := &TxSet{Txs: txs}
	rev := &TxSet{Txs: reversed(txs)}
	if fwd.Hash(c.networkID) != rev.Hash(c.networkID) {
		t.Fatal("setup: orderings should hash equal")
	}
	a := fwd.SortForApply(c.networkID)
	b := rev.SortForApply(c.networkID)
	for i := range a {
		if a[i].Hash(c.networkID) != b[i].Hash(c.networkID) {
			t.Fatalf("apply order differs at %d", i)
		}
	}
}

func reversed(txs []*Transaction) []*Transaction {
	out := make([]*Transaction, len(txs))
	for i, tx := range txs {
		out[len(txs)-1-i] = tx
	}
	return out
}
