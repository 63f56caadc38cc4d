package herder

import (
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/ledger"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/transport"
)

// admitTestNode builds a single self-quorum validator; when run is true
// it is bootstrapped and has closed a few ledgers.
func admitTestNode(t *testing.T, run bool) (*Node, *simnet.Network, stellarcrypto.KeyPair) {
	t.Helper()
	net := simnet.New(1)
	nid := stellarcrypto.HashBytes([]byte("admit-test"))
	kp := stellarcrypto.KeyPairFromString("admit-validator")
	self := fba.NodeIDFromPublicKey(kp.Public)
	node, err := New(net, Config{
		Keys:           kp,
		QSet:           fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{self}},
		NetworkID:      nid,
		LedgerInterval: time.Second,
		MempoolMaxTxs:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	genesis, master := GenesisState(nid)
	if run {
		node.Bootstrap(genesis, 0)
		node.Start()
		net.RunFor(3 * time.Second)
	}
	return node, net, master
}

func masterTx(node *Node, master stellarcrypto.KeyPair, fee ledger.Amount, seqAhead uint64) *ledger.Transaction {
	source := ledger.AccountIDFromPublicKey(master.Public)
	tx := &ledger.Transaction{
		Source: source, Fee: fee,
		SeqNum: node.state.Account(source).SeqNum + seqAhead,
		Operations: []ledger.Operation{{
			Body: &ledger.Payment{Destination: source, Amount: ledger.One},
		}},
	}
	tx.Sign(node.cfg.NetworkID, master)
	return tx
}

// TestAdmitNotReadyBeforeBootstrap: with no ledger state the front door
// stays closed with not_ready and an error, not a panic or silent accept.
func TestAdmitNotReadyBeforeBootstrap(t *testing.T) {
	node, _, _ := admitTestNode(t, false)
	res := node.AdmitTx(&ledger.Transaction{})
	if res.Code != AdmitNotReady {
		t.Fatalf("code = %v, want not_ready", res.Code)
	}
	if res.Err == nil {
		t.Fatalf("not_ready must carry an error, got %+v", res)
	}
}

// TestAdmitInvalidFee: a fee below the base-fee minimum is refused as
// invalid, carrying the minimum as the hint.
func TestAdmitInvalidFee(t *testing.T) {
	node, _, master := admitTestNode(t, true)
	res := node.AdmitTx(masterTx(node, master, 1, 1))
	if res.Code != AdmitInvalid {
		t.Fatalf("code = %v, want invalid", res.Code)
	}
	if res.MinFee != node.state.BaseFee {
		t.Fatalf("MinFee = %d, want %d", res.MinFee, node.state.BaseFee)
	}
}

// TestAdmitAcceptedAndDuplicate: acceptance pools the tx and reports its
// hash; resubmission is an idempotent duplicate.
func TestAdmitAcceptedAndDuplicate(t *testing.T) {
	node, _, master := admitTestNode(t, true)
	tx := masterTx(node, master, node.state.BaseFee, 1)
	res := node.AdmitTx(tx)
	if res.Code != AdmitAccepted || res.Hash != tx.Hash(node.cfg.NetworkID) {
		t.Fatalf("first admit %+v", res)
	}
	if node.PendingCount() != 1 {
		t.Fatalf("pending = %d", node.PendingCount())
	}
	if res := node.AdmitTx(tx); res.Code != AdmitDuplicate {
		t.Fatalf("resubmit code = %v, want duplicate", res.Code)
	}
	if node.PendingCount() != 1 {
		t.Fatalf("pending after duplicate = %d", node.PendingCount())
	}
}

// TestCatchingUpOnFutureDecision: a node holding an externalized value
// for a slot beyond next (or next without its txset) reports itself
// catching up; applying normally it does not.
func TestCatchingUpOnFutureDecision(t *testing.T) {
	node, _, _ := admitTestNode(t, true)
	if node.CatchingUp() {
		t.Fatal("healthy synced node reports catching up")
	}
	next := uint64(node.last.LedgerSeq) + 1

	// Next slot decided but the tx set is still in flight.
	node.decided[next] = &StellarValue{TxSetHash: stellarcrypto.HashBytes([]byte("missing"))}
	if !node.CatchingUp() {
		t.Fatal("missing txset for next slot not reported as catching up")
	}
	delete(node.decided, next)

	// A decision for a slot past next means intervening ledgers are owed.
	node.decided[next+3] = &StellarValue{}
	if !node.CatchingUp() {
		t.Fatal("future decided slot not reported as catching up")
	}
	delete(node.decided, next+3)

	if node.CatchingUp() {
		t.Fatal("node still catching up after decisions cleared")
	}
}

// TestAdmitEndedTimeBounds: a transaction whose time bounds ended at or
// before the last close is refused as invalid, and a pooled one is dropped
// by the close whose close time reaches its MaxTime, even though its
// sequence number never comes up.
func TestAdmitEndedTimeBounds(t *testing.T) {
	node, net, master := admitTestNode(t, true)
	base := node.state.BaseFee
	ended := masterTx(node, master, base, 1)
	ended.TimeBounds = &ledger.TimeBounds{MaxTime: node.last.CloseTime}
	ended.Signatures = nil
	ended.Sign(node.cfg.NetworkID, master)
	if res := node.AdmitTx(ended); res.Code != AdmitInvalid || res.Err == nil {
		t.Fatalf("ended time bounds: %+v, want invalid", res)
	}

	// Sequence +2 cannot apply while +1 is missing; its bounds end one
	// second after the last close. A flood pools it: +1 may be on its way.
	maxTime := node.last.CloseTime + 1
	waiting := masterTx(node, master, base, 2)
	waiting.TimeBounds = &ledger.TimeBounds{MaxTime: maxTime}
	waiting.Signatures = nil
	waiting.Sign(node.cfg.NetworkID, master)
	if refused := node.onTx(waiting); refused || node.PendingCount() != 1 {
		t.Fatalf("live time bounds: refused %v, %d pooled, want pooled", refused, node.PendingCount())
	}
	for node.last.CloseTime < maxTime {
		net.RunFor(time.Second)
	}
	if node.PendingCount() != 0 {
		t.Fatalf("pool holds %d after ledger %d closed at %d, at or past MaxTime %d",
			node.PendingCount(), node.last.LedgerSeq, node.last.CloseTime, maxTime)
	}
}

// TestFloodEndedTimeBoundsRefused: a flooded transaction whose time bounds
// ended at or before the last close meets the same gate as a local one. It
// is refused as flood_invalid, which the overlay does not forward, and takes
// no pool slot.
func TestFloodEndedTimeBoundsRefused(t *testing.T) {
	node, _, master := admitTestNode(t, true)
	tx := masterTx(node, master, node.state.BaseFee, 1)
	tx.TimeBounds = &ledger.TimeBounds{MaxTime: node.last.CloseTime}
	tx.Signatures = nil
	tx.Sign(node.cfg.NetworkID, master)
	if !node.onTx(tx) {
		t.Fatal("flood with ended time bounds was not refused")
	}
	if node.pool.Contains(tx.Hash(node.cfg.NetworkID)) {
		t.Fatal("flood with ended time bounds was pooled")
	}
	if got := node.ins.flooded[AdmitInvalid].Value(); got != 1 {
		t.Fatalf("mempool_admitted_total{flood_invalid} = %v, want 1", got)
	}
}

// TestLocalBadSignatureNeverFloods: a locally submitted transaction whose
// signature fails is refused by the gate; no pool holds it and no peer
// hears of it.
func TestLocalBadSignatureNeverFloods(t *testing.T) {
	net, nodes, nid := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(3 * time.Second)
	_, master := GenesisState(nid)
	tx := masterTx(nodes[0], master, nodes[0].state.BaseFee, 1)
	tx.Signatures = nil
	tx.Sign(nid, stellarcrypto.KeyPairFromString("admit-forger"))
	if res := nodes[0].AdmitTx(tx); res.Code != AdmitBadSignature || res.Err == nil {
		t.Errorf("forged local submission: %+v, want bad_signature", res)
	}
	net.RunFor(3 * time.Second)
	for i, n := range nodes {
		if n.PendingCount() != 0 {
			t.Errorf("node %d pools %d transactions", i, n.PendingCount())
		}
		for c, ctr := range n.ins.flooded {
			if v := ctr.Value(); v != 0 {
				t.Errorf("node %d counted %v floods as %s", i, v, AdmitCode(c))
			}
		}
	}
}

// TestFeeStatsTracksPool: the stats surface follows pool occupancy and
// publishes the eviction floor once full.
func TestFeeStatsTracksPool(t *testing.T) {
	node, _, master := admitTestNode(t, true)
	base := node.state.BaseFee
	for i := uint64(1); i <= 4; i++ { // MempoolMaxTxs: 4
		if res := node.AdmitTx(masterTx(node, master, base, i)); res.Code != AdmitAccepted {
			t.Fatalf("fill %d: %+v", i, res)
		}
	}
	fs := node.FeeStats()
	if !fs.PoolFull || fs.PoolSize != 4 || fs.PoolCap != 4 {
		t.Fatalf("stats %+v", fs)
	}
	if fs.MinFeePerOp != base+1 {
		t.Fatalf("MinFeePerOp = %d, want %d", fs.MinFeePerOp, base+1)
	}
	if fs.BaseFee != base {
		t.Fatalf("BaseFee = %d", fs.BaseFee)
	}
}

// TestForgedFloodCannotTakeOrDisplace: a flooded transaction that names an
// account this node holds is signature-checked before the pool sees it. A
// forged copy at a winning fee — one replacing a resident's sequence number,
// one outbidding the floor of a full pool — is refused as
// flood_bad_signature and
// every honest resident stays. A flood that needs a signature from an
// account this node cannot see yet — its source, or only an operation's —
// is still pooled unchecked.
func TestForgedFloodCannotTakeOrDisplace(t *testing.T) {
	node, _, master := admitTestNode(t, true)
	base := node.state.BaseFee
	var residents []stellarcrypto.Hash
	for i := uint64(1); i <= 4; i++ { // MempoolMaxTxs: 4
		res := node.AdmitTx(masterTx(node, master, base, i))
		if res.Code != AdmitAccepted {
			t.Fatalf("fill %d: %+v", i, res)
		}
		residents = append(residents, res.Hash)
	}

	forger := stellarcrypto.KeyPairFromString("admit-forger")
	for _, seqAhead := range []uint64{1, 5} { // replace-by-fee, full-pool eviction
		forged := masterTx(node, master, 10*base, seqAhead)
		forged.Signatures = nil
		forged.Sign(node.cfg.NetworkID, forger)
		node.onTx(forged)
		if node.pool.Contains(forged.Hash(node.cfg.NetworkID)) {
			t.Fatalf("forged flood at sequence +%d was pooled", seqAhead)
		}
	}
	for i, h := range residents {
		if !node.pool.Contains(h) {
			t.Fatalf("honest resident %d was displaced by a forged flood", i+1)
		}
	}
	if got := node.ins.flooded[AdmitBadSignature].Value(); got != 2 {
		t.Fatalf("mempool_admitted_total{flood_bad_signature} = %v, want 2", got)
	}
	if got := node.ins.evicted.Value(); got != 0 {
		t.Fatalf("mempool_evicted_total = %v, want 0", got)
	}

	ghost := stellarcrypto.KeyPairFromString("admit-ghost")
	ghostID := ledger.AccountIDFromPublicKey(ghost.Public)
	orphan := &ledger.Transaction{
		Source: ghostID, Fee: 10 * base, SeqNum: 1,
		Operations: []ledger.Operation{{Body: &ledger.Payment{
			Destination: ledger.AccountIDFromPublicKey(master.Public), Amount: ledger.One}}},
	}
	orphan.Sign(node.cfg.NetworkID, forger)
	node.onTx(orphan)
	if !node.pool.Contains(orphan.Hash(node.cfg.NetworkID)) {
		t.Fatal("flood from an account this node cannot see yet was not pooled")
	}

	// The source exists and signed, but an operation's source is an account
	// created on a ledger this node has not applied yet.
	opLag := masterTx(node, master, 10*base, 5)
	opLag.Operations[0].Source = ghostID
	opLag.Signatures = nil
	opLag.Sign(node.cfg.NetworkID, master)
	opLag.Sign(node.cfg.NetworkID, ghost)
	node.onTx(opLag)
	if !node.pool.Contains(opLag.Hash(node.cfg.NetworkID)) {
		t.Fatal("flood with an operation source this node cannot see yet was not pooled")
	}
	if got := node.ins.flooded[AdmitBadSignature].Value(); got != 2 {
		t.Fatalf("mempool_admitted_total{flood_bad_signature} = %v after the lagging floods, want 2", got)
	}
}

// TestLoopDropsSeenFloodsBeforeDecode: on a process's transport loop, New
// registers the overlay itself as the node's handler, which is what lets a
// connection reader drop a flooded copy the node has seen before decoding
// it. A wrapped handler would silently decode every copy again: the copy
// would then allocate.
func TestLoopDropsSeenFloodsBeforeDecode(t *testing.T) {
	loop := transport.NewLoop()
	nid := stellarcrypto.HashBytes([]byte("admit-test"))
	kp := stellarcrypto.KeyPairFromString("admit-validator")
	self := fba.NodeIDFromPublicKey(kp.Public)
	node, err := New(loop, Config{
		Keys:           kp,
		QSet:           fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{self}},
		NetworkID:      nid,
		LedgerInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	genesis, master := GenesisState(nid)
	loop.Run(func() { node.Bootstrap(genesis, 0) })
	var payload []byte
	loop.Run(func() {
		payload, err = transport.EncodePacket(&overlay.Packet{
			Kind: overlay.KindTx, Tx: masterTx(node, master, 100, 1), TTL: 4, Origin: "peer"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.Receive("peer", payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := loop.Receive("peer", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a seen transaction's copy cost %v allocations: it was decoded", allocs)
	}
	if got := node.Obs().Reg.Counter("overlay_dupes_suppressed_total", "").Value(); got != 21 {
		t.Fatalf("%v copies counted as suppressed, want 21", got)
	}
}
