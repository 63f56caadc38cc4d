package overlay

import (
	"fmt"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

func buildMesh(t *testing.T, n int, cacheSize int, topology func(i, j int) bool) (*simnet.Network, []*Overlay) {
	t.Helper()
	net := simnet.New(1)
	net.SetLatency(simnet.ConstantLatency(time.Millisecond))
	nid := stellarcrypto.HashBytes([]byte("overlay-test"))
	overlays := make([]*Overlay, n)
	addrs := make([]simnet.Addr, n)
	for i := range overlays {
		addrs[i] = simnet.Addr(fmt.Sprintf("n%d", i))
	}
	for i := range overlays {
		overlays[i] = New(net, addrs[i], nid, cacheSize)
		net.AddNode(addrs[i], simnet.HandlerFunc(overlays[i].HandleMessage))
	}
	for i := range overlays {
		for j := range overlays {
			if i != j && topology(i, j) {
				overlays[i].Connect(addrs[j])
			}
		}
	}
	return net, overlays
}

func fullMesh(i, j int) bool { return true }

func ringTopology(n int) func(i, j int) bool {
	return func(i, j int) bool {
		return j == (i+1)%n || j == (i+n-1)%n
	}
}

func testEnvelope(seq uint64) *scp.Envelope {
	return &scp.Envelope{
		Node: "origin", Slot: 1, Seq: seq,
		QSet:      fba.Majority("origin", "x", "y"),
		Statement: scp.Statement{Type: scp.StmtNominate, Votes: []scp.Value{scp.Value(fmt.Sprintf("v%d", seq))}},
	}
}

func TestFloodReachesAllFullMesh(t *testing.T) {
	net, overlays := buildMesh(t, 5, 0, fullMesh)
	var got [5]int
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) { got[i]++ }
	}
	overlays[0].BroadcastEnvelope(testEnvelope(1))
	net.RunUntilIdle(0)
	for i := 1; i < 5; i++ {
		if got[i] != 1 {
			t.Fatalf("node %d delivered %d times, want exactly 1", i, got[i])
		}
	}
	if got[0] != 0 {
		t.Fatal("origin delivered its own message")
	}
}

func TestFloodReachesAllRing(t *testing.T) {
	// Multi-hop: flooding must traverse the ring.
	net, overlays := buildMesh(t, 8, 0, ringTopology(8))
	var got [8]int
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) { got[i]++ }
	}
	overlays[0].BroadcastEnvelope(testEnvelope(1))
	net.RunUntilIdle(0)
	for i := 1; i < 8; i++ {
		if got[i] != 1 {
			t.Fatalf("ring node %d delivered %d times", i, got[i])
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	net, overlays := buildMesh(t, 4, 0, fullMesh)
	delivered := 0
	overlays[3].OnEnvelope = func(env *scp.Envelope) { delivered++ }
	env := testEnvelope(1)
	overlays[0].BroadcastEnvelope(env)
	overlays[0].BroadcastEnvelope(env) // re-broadcast of identical message
	net.RunUntilIdle(0)
	if delivered != 1 {
		t.Fatalf("delivered %d times despite dedup", delivered)
	}
	if overlays[3].DupesSuppessed == 0 {
		t.Fatal("no duplicates suppressed in full mesh")
	}
}

func TestTxFlooding(t *testing.T) {
	net, overlays := buildMesh(t, 3, 0, fullMesh)
	var got *ledger.Transaction
	overlays[2].OnTx = func(tx *ledger.Transaction) { got = tx }
	tx := &ledger.Transaction{
		Source: "GABC", Fee: 100, SeqNum: 7,
		Operations: []ledger.Operation{{Body: &ledger.BumpSequence{}}},
	}
	overlays[0].BroadcastTx(tx)
	net.RunUntilIdle(0)
	if got == nil || got.SeqNum != 7 {
		t.Fatal("transaction not flooded")
	}
}

func TestTinyCacheStillTerminates(t *testing.T) {
	// With a pathologically small cache, re-flooding loops are possible
	// in principle; verify the network still quiesces and every message
	// is delivered at least once (the ablation's degradation mode is
	// duplicate deliveries, not loss).
	net, overlays := buildMesh(t, 4, 2, fullMesh)
	deliveries := 0
	overlays[3].OnEnvelope = func(env *scp.Envelope) { deliveries++ }
	for i := 0; i < 10; i++ {
		overlays[0].BroadcastEnvelope(testEnvelope(uint64(i)))
	}
	if n := net.RunUntilIdle(100000); n >= 100000 {
		t.Fatal("flooding did not terminate with tiny cache")
	}
	if deliveries < 10 {
		t.Fatalf("delivered %d, want ≥ 10", deliveries)
	}
}

func TestSeenCacheEviction(t *testing.T) {
	o := New(simnet.New(1), "a", stellarcrypto.Hash{}, 2)
	h1 := stellarcrypto.HashBytes([]byte("1"))
	h2 := stellarcrypto.HashBytes([]byte("2"))
	h3 := stellarcrypto.HashBytes([]byte("3"))
	if !o.markSeen(h1) || !o.markSeen(h2) {
		t.Fatal("fresh ids reported seen")
	}
	if o.markSeen(h1) {
		t.Fatal("h1 not deduped")
	}
	if !o.markSeen(h3) { // evicts h1
		t.Fatal("h3 reported seen")
	}
	if !o.markSeen(h1) {
		t.Fatal("h1 should have been evicted")
	}
}

func TestConnectIgnoresSelf(t *testing.T) {
	o := New(simnet.New(1), "a", stellarcrypto.Hash{}, 0)
	o.Connect("a", "b")
	if len(o.Peers()) != 1 || o.Peers()[0] != "b" {
		t.Fatalf("peers = %v", o.Peers())
	}
}

// TestTxSetRefForwardedOnlyOnceHeld: a reference is marked seen and passed
// on only when the application reports it holds the set, so a node that
// could not rebuild it hears it again from the next peer — the next peer it
// can ask — and whoever a reference is heard from can serve the set. Whole
// sets and requests for them are point-to-point: handed over with their
// sender, never forwarded.
func TestTxSetRefForwardedOnlyOnceHeld(t *testing.T) {
	net, overlays := buildMesh(t, 4, 0, ringTopology(4)) // 0 – 1 – 2 – 3 – 0
	ref := &ledger.TxSetRef{TxHashes: []stellarcrypto.Hash{stellarcrypto.HashBytes([]byte("tx"))}}
	var heardFrom [4][]simnet.Addr
	holds := [4]bool{2: true}
	direct := 0
	for i, o := range overlays {
		i := i
		o.OnTxSetRef = func(from simnet.Addr, r *ledger.TxSetRef) bool {
			if r.SetHash() != ref.SetHash() {
				t.Errorf("node %d: another reference delivered", i)
			}
			heardFrom[i] = append(heardFrom[i], from)
			return holds[i]
		}
		o.OnDirect = func(simnet.Addr, *Packet) { direct++ }
	}
	overlays[0].BroadcastTxSetRef(ref, obs.TraceContext{})
	net.RunUntilIdle(0)
	// 1 and 3 cannot rebuild the set and keep the reference to themselves:
	// 2, between them, never hears it.
	if len(heardFrom[1]) != 1 || len(heardFrom[3]) != 1 || len(heardFrom[2]) != 0 {
		t.Fatalf("deliveries %v: a reference travelled past a node that does not hold the set", heardFrom)
	}
	// The origin floods it again (anti-entropy): not a duplicate to a node
	// still missing the set; once 1 holds it, 1 forwards, 2 forwards, and 3
	// — which heard it twice more — is told by both neighbours.
	holds[1] = true
	overlays[0].BroadcastTxSetRef(ref, obs.TraceContext{})
	net.RunUntilIdle(0)
	if len(heardFrom[1]) != 2 || len(heardFrom[2]) != 1 || heardFrom[2][0] != "n1" {
		t.Fatalf("deliveries %v: want the reference redelivered to 1 and forwarded to 2", heardFrom)
	}
	if got := heardFrom[3]; len(got) != 3 || got[1] != "n0" || got[2] != "n2" {
		t.Fatalf("node 3 heard the reference from %v, want n0, n0, n2: every holder it can ask", got)
	}
	// Held now: the same reference is a duplicate.
	dupes := overlays[1].DupesSuppessed
	overlays[0].BroadcastTxSetRef(ref, obs.TraceContext{})
	net.RunUntilIdle(0)
	if len(heardFrom[1]) != 2 || overlays[1].DupesSuppessed != dupes+1 {
		t.Fatal("a reference to a held set was delivered again")
	}

	overlays[0].SendDirect("n1", &Packet{Kind: KindTxSetReq, TxSetHash: ref.SetHash()})
	overlays[0].SendDirect("n1", &Packet{Kind: KindTxSet, TxSet: &ledger.TxSet{}, TTL: DefaultTTL})
	net.RunUntilIdle(0)
	if direct != 2 || overlays[1].FloodsSent != 1 {
		t.Fatalf("%d direct packets handed over, node 1 flooded %d packets: want 2 and only the reference", direct, overlays[1].FloodsSent)
	}
}
