package herder

import (
	"testing"
	"time"

	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/scp"
	"stellar/internal/stellarcrypto"
)

// TestAdmitRefusesBadSeq: the gate runs the sequence rule. A sequence
// number the account has used is refused as bad_seq, locally and as a
// flood (which is then not forwarded); a local submission past a gap is
// refused too, while a gapped flood is pooled, its predecessor possibly
// still on its way. A chain that continues what is pooled is accepted.
func TestAdmitRefusesBadSeq(t *testing.T) {
	node, _, master := admitTestNode(t, true)
	base := node.state.BaseFee
	if res := node.AdmitTx(masterTx(node, master, base, 0)); res.Code != AdmitBadSeq || res.Err == nil {
		t.Fatalf("used sequence: %+v, want bad_seq", res)
	}
	if res := node.AdmitTx(masterTx(node, master, base, 2)); res.Code != AdmitBadSeq {
		t.Fatalf("gapped local submission: %+v, want bad_seq", res)
	}
	if !node.onTx(masterTx(node, master, base, 0)) {
		t.Fatal("a flood with a used sequence number was not refused")
	}
	if got := node.ins.flooded[AdmitBadSeq].Value(); got != 1 {
		t.Fatalf("mempool_admitted_total{flood_bad_seq} = %v, want 1", got)
	}
	if node.onTx(masterTx(node, master, base, 3)) {
		t.Fatal("a gapped flood was refused")
	}
	for ahead := uint64(1); ahead <= 2; ahead++ {
		if res := node.AdmitTx(masterTx(node, master, base, ahead)); res.Code != AdmitAccepted {
			t.Fatalf("chained submission +%d: %+v, want accepted", ahead, res)
		}
	}
	if node.PendingCount() != 3 {
		t.Fatalf("pool holds %d, want the chain of three", node.PendingCount())
	}
}

// TestChainAppliesInOneLedger: a source with k pending payments, k within
// the ledger's room, has all k applied by the next close.
func TestChainAppliesInOneLedger(t *testing.T) {
	node, net, master := admitTestNode(t, true)
	const k = 4 // MempoolMaxTxs
	source := ledger.AccountIDFromPublicKey(master.Public)
	start := node.state.Account(source).SeqNum
	for ahead := uint64(1); ahead <= k; ahead++ {
		if res := node.AdmitTx(masterTx(node, master, node.state.BaseFee, ahead)); res.Code != AdmitAccepted {
			t.Fatalf("submission +%d: %+v", ahead, res)
		}
	}
	closed := node.LastHeader().LedgerSeq
	for node.LastHeader().LedgerSeq == closed {
		net.RunFor(100 * time.Millisecond)
	}
	if got := node.state.Account(source).SeqNum - start; got != k {
		t.Fatalf("ledger %d applied %d of the source's %d pending payments", node.LastHeader().LedgerSeq, got, k)
	}
	if node.PendingCount() != 0 {
		t.Fatalf("pool holds %d after the close", node.PendingCount())
	}
}

// TestValidateValueJudgesTheSet: a known set on the tip is fully valid
// when each source's transactions form a whole valid chain and every member
// is properly signed, and invalid when it holds two transactions of one
// source at one sequence number, a gapped chain, an unknown source, or a
// member whose signature fails.
func TestValidateValueJudgesTheSet(t *testing.T) {
	_, nodes, nid, payers := buildFunded(t, 2, nil)
	n := nodes[0]
	pay := func(p *payer, seq uint64, memo string) *ledger.Transaction {
		tx := &ledger.Transaction{Source: p.id, Fee: ledger.DefaultBaseFee, SeqNum: seq, Memo: memo,
			Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: p.id, Asset: ledger.NativeAsset(), Amount: 1}}}}
		tx.Sign(nid, p.kp)
		return tx
	}
	a, b := payers[0], payers[1]
	forged := pay(a, a.seq+1, "")
	forged.Signatures = nil
	forged.Sign(nid, b.kp)
	ghost := pay(a, 1, "")
	ghost.Source = "GGHOST"
	slot := uint64(n.LastHeader().LedgerSeq) + 1
	for _, tc := range []struct {
		name string
		txs  []*ledger.Transaction
		want scp.ValidationLevel
	}{
		{"two chains", []*ledger.Transaction{pay(a, a.seq+2, ""), pay(b, b.seq+1, ""), pay(a, a.seq+1, "")}, scp.ValueFullyValid},
		{"two at one sequence", []*ledger.Transaction{pay(a, a.seq+1, "x"), pay(a, a.seq+1, "y")}, scp.ValueInvalid},
		{"gapped chain", []*ledger.Transaction{pay(a, a.seq+1, ""), pay(a, a.seq+3, "")}, scp.ValueInvalid},
		{"used sequence", []*ledger.Transaction{pay(b, b.seq, "")}, scp.ValueInvalid},
		{"unknown source", []*ledger.Transaction{pay(b, b.seq+1, ""), ghost}, scp.ValueInvalid},
		{"bad signature", []*ledger.Transaction{forged}, scp.ValueInvalid},
	} {
		ts := &ledger.TxSet{PrevLedgerHash: n.LastHeader().Hash(), Txs: tc.txs}
		n.txsets[ts.Hash(nid)] = ts
		v := (&StellarValue{TxSetHash: ts.Hash(nid), CloseTime: n.LastHeader().CloseTime + 1}).Encode()
		if got := (*driver)(n).ValidateValue(slot, v); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCompositeKeepsItsSetValid: the composite takes the latest close time
// of its candidates, which may end a time bound of the set it picks; it
// then closes when that set's proposer proposed, so the set stays valid.
func TestCompositeKeepsItsSetValid(t *testing.T) {
	_, nodes, nid, payers := buildFunded(t, 1, nil)
	n, p := nodes[0], payers[0]
	at := n.LastHeader().CloseTime + 1
	tx := &ledger.Transaction{Source: p.id, Fee: ledger.DefaultBaseFee, SeqNum: p.seq + 1,
		TimeBounds: &ledger.TimeBounds{MaxTime: at},
		Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: p.id, Asset: ledger.NativeAsset(), Amount: 1}}}}
	tx.Sign(nid, p.kp)
	value := func(txs []*ledger.Transaction, closeTime int64) scp.Value {
		ts := &ledger.TxSet{PrevLedgerHash: n.LastHeader().Hash(), Txs: txs}
		n.txsets[ts.Hash(nid)] = ts
		return (&StellarValue{TxSetHash: ts.Hash(nid), CloseTime: closeTime}).Encode()
	}
	composite := (*driver)(n).CombineCandidates(uint64(n.LastHeader().LedgerSeq)+1,
		[]scp.Value{value([]*ledger.Transaction{tx}, at), value(nil, at+1)})
	sv, err := DecodeValue(composite)
	if err != nil {
		t.Fatal(err)
	}
	if sv.CloseTime != at {
		t.Fatalf("composite closes at %d, want %d, when its set's time bounds end", sv.CloseTime, at)
	}
	if got := (*driver)(n).ValidateValue(uint64(n.LastHeader().LedgerSeq)+1, composite); got == scp.ValueInvalid {
		t.Fatal("the composite is invalid")
	}
}

// TestCatchUpPrunesStaleHeads: a node's pool holds a source's chain; the
// network applies its head, and the node catches up from the archive past
// that ledger. The head is then stale, and the catch-up prunes it as a
// close would, so the node proposes the successor at once.
func TestCatchUpPrunesStaleHeads(t *testing.T) {
	arch, err := history.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	net, nodes, nid, payers := buildFunded(t, 1, func(cfgs []*Config) {
		cfgs[0].Archive = arch
		cfgs[0].CheckpointInterval = 1
	})
	p := payers[0]
	pay := func(seq uint64) *ledger.Transaction {
		tx := &ledger.Transaction{Source: p.id, Fee: ledger.DefaultBaseFee, SeqNum: seq,
			Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: p.id, Asset: ledger.NativeAsset(), Amount: 1}}}}
		tx.Sign(nid, p.kp)
		return tx
	}
	head, next := pay(p.seq+1), pay(p.seq+2)
	// A fourth node at genesis, connected to no one, pools the chain.
	late, err := New(net, Config{Keys: stellarcrypto.KeyPairFromString("stale-head-validator"),
		QSet: nodes[0].cfg.QSet, NetworkID: nid, LedgerInterval: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ledger.RestoreState(nodes[0].State().SnapshotAll(), nodes[0].LastHeader())
	if err != nil {
		t.Fatal(err)
	}
	late.Bootstrap(st, 0)
	for _, tx := range []*ledger.Transaction{head, next} {
		if res := late.AdmitTx(tx); res.Code != AdmitAccepted {
			t.Fatalf("late node: %+v", res)
		}
	}
	if res := nodes[0].AdmitTx(head); res.Code != AdmitAccepted {
		t.Fatalf("network: %+v", res)
	}
	for _, n := range nodes {
		n.Start()
	}
	for nodes[0].State().Account(p.id).SeqNum != head.SeqNum {
		net.RunFor(time.Second)
	}
	net.RunFor(2 * time.Second) // a checkpoint past the head's ledger
	if err := late.CatchUp(arch); err != nil {
		t.Fatal(err)
	}
	if late.State().Account(p.id).SeqNum != head.SeqNum {
		t.Fatal("the catch-up did not pass the head's ledger")
	}
	got := late.pool.Candidates(late.state, nid, late.LastHeader().CloseTime+1)
	if late.PendingCount() != 1 || len(got) != 1 || got[0] != next {
		t.Fatalf("after the catch-up the pool holds %d and proposes %d, want the successor alone", late.PendingCount(), len(got))
	}
}
