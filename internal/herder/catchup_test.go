package herder

import (
	"testing"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// TestPeerCatchupAfterCrash reproduces the §6 failure mode directly: a
// validator crashes, misses several ledgers (by which time its peers have
// purged the old consensus state), revives, and must recover via the
// peer ledger-replay protocol rather than SCP alone.
func TestPeerCatchupAfterCrash(t *testing.T) {
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)
	base := nodes[0].LastHeader().LedgerSeq
	if base < 3 {
		t.Fatalf("setup: only %d ledgers", base)
	}

	victim := nodes[2]
	net.SetDown(victim.Addr())
	net.RunFor(10 * time.Second) // several ledgers pass without it
	net.SetUp(victim.Addr())
	behindBy := nodes[0].LastHeader().LedgerSeq - victim.LastHeader().LedgerSeq
	if behindBy < 3 {
		t.Fatalf("setup: victim only %d behind", behindBy)
	}

	// Anti-entropy lets the victim hear about the current slot, triggering
	// gap detection and the catch-up request.
	for i := 0; i < 10; i++ {
		net.RunFor(2 * time.Second)
		for _, n := range nodes {
			n.RebroadcastLatest()
		}
	}
	got := victim.LastHeader().LedgerSeq
	want := nodes[0].LastHeader().LedgerSeq
	if got+1 < want {
		t.Fatalf("victim at %d, network at %d after catch-up window", got, want)
	}
	// Headers agree at a common ledger.
	cmp := got
	if want < cmp {
		cmp = want
	}
	h1, ok1 := victim.HeaderHash(cmp)
	h2, ok2 := nodes[0].HeaderHash(cmp)
	if !ok1 || !ok2 || h1 != h2 {
		t.Fatal("victim diverged after catch-up")
	}
}

// TestCatchupServesWindow checks the serving side: a request inside the
// window yields a contiguous response; a request predating it yields none.
func TestCatchupServesWindow(t *testing.T) {
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)
	server := nodes[0]
	last := server.LastHeader().LedgerSeq
	if last < 3 {
		t.Fatalf("setup: %d ledgers", last)
	}
	before := net.Stats().MessagesSent
	// Request predating the window (genesis was never applied through
	// consensus, so ledger 1 is not servable): no response sent.
	server.serveCatchup(nodes[1].Addr(), 1)
	if net.Stats().MessagesSent != before {
		t.Fatal("server responded for a range outside its window")
	}
	// Request inside the window: one response sent.
	server.serveCatchup(nodes[1].Addr(), last)
	if net.Stats().MessagesSent != before+1 {
		t.Fatal("server did not respond for an in-window range")
	}
}

// TestCatchupReplyChecksEveryLedger: a reply whose first ledger fails any
// of ReplayLedger's checks installs nothing — not that ledger and not the
// honest ones after it — and leaves the node exactly at its tip: a set that
// does not chain from the tip, a set the header does not name, a header
// that contradicts the node's own decision for the slot, and a header that
// applying the set does not reproduce (the node has applied the set by
// then, and must put its ledger back). A node whose first catch-up request
// goes to a peer serving such a header still reaches the honest tip, from
// the next peer.
func TestCatchupReplyChecksEveryLedger(t *testing.T) {
	net, nodes, nid, payers := buildFunded(t, 4, nil)
	victim := lagBehind(t, net, nodes, 6, func() {
		for i, p := range payers {
			if err := nodes[i%2].SubmitTx(p.payment(nid, payers[(i+1)%len(payers)].id)); err != nil {
				t.Fatal(err)
			}
		}
	})
	tip := victim.LastHeader()
	honest := catchupItems(nodes[0], tip.LedgerSeq+1)[:3]
	if len(honest[0].TxSet.Txs) == 0 {
		t.Fatal("setup: the first missed ledger is empty")
	}
	first := *honest[0].Header
	reply := func(hdr *ledger.Header, ts *ledger.TxSet) []overlay.CatchupItem {
		return []overlay.CatchupItem{{Header: hdr, TxSet: ts}, honest[1], honest[2]}
	}
	refused := func(what string, items []overlay.CatchupItem) {
		t.Helper()
		victim.applyCatchup(items)
		if got := victim.LastHeader(); got != tip {
			t.Fatalf("%s: the node moved from ledger %d to %d", what, tip.LedgerSeq, got.LedgerSeq)
		}
		if victim.buckets.Hash() != tip.SnapshotHash {
			t.Fatalf("%s: the bucket list no longer stands at the tip", what)
		}
	}

	refused("a set that does not chain from the tip", reply(&first, honest[1].TxSet))

	unnamed := &ledger.TxSet{PrevLedgerHash: tip.Hash(), Txs: append([]*ledger.Transaction{{
		Source: "GFORGED", Fee: 100, SeqNum: 1,
		Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: "GNOBODY", Amount: 1}}},
	}}, honest[0].TxSet.Txs...)}
	refused("a set the header does not name", reply(&first, unnamed))

	wrongResults := first
	wrongResults.ResultsHash = stellarcrypto.HashBytes([]byte("forged results"))
	refused("a header the set does not reproduce", reply(&wrongResults, honest[0].TxSet))

	// The node's own decision for the slot, as its SCP would hold it; and a
	// header for the same set at another close time, which applying the set
	// would reproduce — only the decision gives it away.
	decided := &StellarValue{TxSetHash: first.TxSetHash, CloseTime: first.CloseTime}
	if stellarcrypto.HashBytes(decided.Encode()) != first.SCPValueHash {
		t.Fatal("setup: the rebuilt decision is not the value the ledger closed on")
	}
	victim.decided[uint64(first.LedgerSeq)] = decided
	later := &StellarValue{TxSetHash: first.TxSetHash, CloseTime: first.CloseTime + 1}
	contradicting := first
	contradicting.CloseTime, contradicting.SCPValueHash = later.CloseTime, stellarcrypto.HashBytes(later.Encode())
	refused("a header contradicting the node's decision", reply(&contradicting, honest[0].TxSet))

	// A peer that serves the header with forged results, asked first.
	liar := simnet.Addr("catchup-liar")
	asked := 0
	net.AddNode(liar, simnet.HandlerFunc(func(from simnet.Addr, msg any, size int) {
		p, ok := msg.(*overlay.Packet)
		if !ok || p.Kind != overlay.KindCatchupReq {
			return
		}
		asked++
		items := catchupItems(nodes[0], p.CatchupFrom)
		forged := *items[0].Header
		forged.ResultsHash = wrongResults.ResultsHash
		items[0].Header = &forged
		net.Send(liar, from, &overlay.Packet{Kind: overlay.KindCatchupResp, CatchupItems: items}, 1024)
	}))
	for _, n := range nodes[:2] {
		victim.Overlay().RemovePeer(n.Addr())
	}
	victim.Overlay().Connect(liar, nodes[0].Addr(), nodes[1].Addr())
	rejoin(t, net, nodes, victim)
	if asked == 0 {
		t.Fatal("the lying peer was never asked")
	}
	sameChain(t, victim, nodes[0], 1)
}
