package overlay

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

func buildMesh(t *testing.T, n int, topology func(i, j int) bool) (*simnet.Network, []*Overlay) {
	t.Helper()
	net := simnet.New(1)
	net.SetLatency(simnet.ConstantLatency(time.Millisecond))
	overlays := make([]*Overlay, n)
	addrs := make([]simnet.Addr, n)
	for i := range overlays {
		addrs[i] = simnet.Addr(fmt.Sprintf("n%d", i))
	}
	for i := range overlays {
		overlays[i] = New(net, addrs[i])
		overlays[i].SetObs(obs.NewRegistry(), nil)
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

// dupesOf reads o's overlay_dupes_suppressed_total.
func dupesOf(o *Overlay) float64 { return o.ins.dupes.Value() }

// packetsSent reads o's overlay_packets_sent_total{kind}.
func packetsSent(o *Overlay, k Kind) float64 { return o.ins.pktsSent.With(k.String()).Value() }

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
	net, overlays := buildMesh(t, 5, fullMesh)
	var got [5]int
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) bool { got[i]++; return false }
	}
	overlays[0].BroadcastEnvelope(testEnvelope(1), obs.TraceContext{})
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
	// Multi-hop: flooding must traverse the ring, and with the origin's
	// neighbour n1 crashed it still reaches every live node the long way.
	for _, tc := range []struct {
		name string
		down int
	}{{"all-up", -1}, {"n1-down", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			net, overlays := buildMesh(t, 8, ringTopology(8))
			if tc.down >= 0 {
				net.SetDown(simnet.Addr(fmt.Sprintf("n%d", tc.down)))
			}
			var got [8]int
			for i := range overlays {
				i := i
				overlays[i].OnEnvelope = func(env *scp.Envelope) bool { got[i]++; return false }
			}
			overlays[0].BroadcastEnvelope(testEnvelope(1), obs.TraceContext{})
			net.RunUntilIdle(0)
			for i := 1; i < 8; i++ {
				want := 1
				if i == tc.down {
					want = 0
				}
				if got[i] != want {
					t.Fatalf("ring node %d delivered %d times, want %d", i, got[i], want)
				}
			}
		})
	}
}

// TestFloodFromEveryOrigin: every node of a ring broadcasts its own
// envelope at once; each must reach every other node exactly once.
func TestFloodFromEveryOrigin(t *testing.T) {
	const n = 8
	net, overlays := buildMesh(t, n, ringTopology(n))
	var got [n]int
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) bool { got[i]++; return false }
	}
	for i, o := range overlays {
		o.BroadcastEnvelope(testEnvelope(uint64(100+i)), obs.TraceContext{})
	}
	net.RunUntilIdle(0)
	for i := range got {
		if got[i] != n-1 {
			t.Fatalf("node %d delivered %d envelopes, want %d", i, got[i], n-1)
		}
	}
}

// TestFloodSendCount pins what one broadcast costs in envelope packets:
// every node sends a novel packet once to each peer but the one it came
// from, so a full mesh of n pays (n−1)², a ring n+1, and a star n−1
// whether the hub or a leaf broadcasts.
func TestFloodSendCount(t *testing.T) {
	star := func(i, j int) bool { return i == 0 || j == 0 }
	for _, tc := range []struct {
		name     string
		n        int
		topology func(i, j int) bool
		origin   int
		want     float64
	}{
		{"full-2", 2, fullMesh, 0, 1},
		{"full-5", 5, fullMesh, 0, 16},
		{"full-16", 16, fullMesh, 0, 225},
		{"ring-4", 4, ringTopology(4), 0, 5},
		{"ring-13", 13, ringTopology(13), 0, 14},
		{"star-hub", 6, star, 0, 5},
		{"star-leaf", 6, star, 3, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, overlays := buildMesh(t, tc.n, tc.topology)
			delivered := make([]int, tc.n)
			for i := range overlays {
				i := i
				overlays[i].OnEnvelope = func(env *scp.Envelope) bool { delivered[i]++; return false }
			}
			overlays[tc.origin].BroadcastEnvelope(testEnvelope(1), obs.TraceContext{})
			net.RunUntilIdle(0)
			var sent float64
			for i, o := range overlays {
				sent += packetsSent(o, KindEnvelope)
				want := 1
				if i == tc.origin {
					want = 0
				}
				if delivered[i] != want {
					t.Fatalf("node %d delivered %d times, want %d", i, delivered[i], want)
				}
			}
			if sent != tc.want {
				t.Fatalf("one broadcast sent %v envelope packets, want %v", sent, tc.want)
			}
		})
	}
}

// TestFloodForwardsUnknownOrigin: a packet whose origin and sender are
// not peers is still forwarded to every peer. Only the sender is left out
// of a flood; the origin plays no part in routing.
func TestFloodForwardsUnknownOrigin(t *testing.T) {
	net, overlays := buildMesh(t, 5, ringTopology(5))
	var got [5]int
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) bool { got[i]++; return false }
	}
	net.AddNode("stranger", simnet.HandlerFunc(func(simnet.Addr, any, int) {}))
	p := &Packet{Kind: KindEnvelope, Envelope: testEnvelope(1), TTL: DefaultTTL, Origin: "stranger"}
	net.Send("stranger", "n2", p, p.size())
	net.RunUntilIdle(0)
	for i := range got {
		if got[i] != 1 {
			t.Fatalf("node %d delivered %d times, want exactly 1", i, got[i])
		}
	}
	if sent := packetsSent(overlays[2], KindEnvelope); sent != 2 {
		t.Fatalf("n2 forwarded to %v peers, want both ring neighbours", sent)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	net, overlays := buildMesh(t, 4, fullMesh)
	delivered := 0
	overlays[3].OnEnvelope = func(env *scp.Envelope) bool { delivered++; return false }
	env := testEnvelope(1)
	overlays[0].BroadcastEnvelope(env, obs.TraceContext{})
	overlays[0].BroadcastEnvelope(env, obs.TraceContext{}) // re-broadcast of identical message
	net.RunUntilIdle(0)
	if delivered != 1 {
		t.Fatalf("delivered %d times despite dedup", delivered)
	}
	if dupesOf(overlays[3]) == 0 {
		t.Fatal("no duplicates suppressed in full mesh")
	}
}

func TestTxFlooding(t *testing.T) {
	net, overlays := buildMesh(t, 3, fullMesh)
	var got *ledger.Transaction
	overlays[2].OnTx = func(tx *ledger.Transaction) bool { got = tx; return false }
	tx := &ledger.Transaction{
		Source: "GABC", Fee: 100, SeqNum: 7,
		Operations: []ledger.Operation{{Body: &ledger.BumpSequence{}}},
	}
	overlays[0].BroadcastTx(tx, obs.TraceContext{})
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
	net, overlays := buildMesh(t, 4, fullMesh)
	for _, o := range overlays {
		o.seen.ring = make([]stellarcrypto.Hash, 2)
	}
	deliveries := 0
	overlays[3].OnEnvelope = func(env *scp.Envelope) bool { deliveries++; return false }
	for i := 0; i < 10; i++ {
		overlays[0].BroadcastEnvelope(testEnvelope(uint64(i)), obs.TraceContext{})
	}
	if n := net.RunUntilIdle(100000); n >= 100000 {
		t.Fatal("flooding did not terminate with tiny cache")
	}
	if deliveries < 10 {
		t.Fatalf("delivered %d, want ≥ 10", deliveries)
	}
}

func TestSeenCacheEviction(t *testing.T) {
	o := New(simnet.New(1), "a")
	o.seen.ring = make([]stellarcrypto.Hash, 2)
	h1 := stellarcrypto.HashBytes([]byte("1"))
	h2 := stellarcrypto.HashBytes([]byte("2"))
	h3 := stellarcrypto.HashBytes([]byte("3"))
	if !o.seen.add(h1) || !o.seen.add(h2) {
		t.Fatal("fresh ids reported seen")
	}
	if o.seen.add(h1) {
		t.Fatal("h1 not deduped")
	}
	if !o.seen.add(h3) { // evicts h1
		t.Fatal("h3 reported seen")
	}
	if !o.seen.add(h1) {
		t.Fatal("h1 should have been evicted")
	}
}

func TestConnectIgnoresSelf(t *testing.T) {
	o := New(simnet.New(1), "a")
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
	net, overlays := buildMesh(t, 4, ringTopology(4)) // 0 – 1 – 2 – 3 – 0
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
	dupes := dupesOf(overlays[1])
	overlays[0].BroadcastTxSetRef(ref, obs.TraceContext{})
	net.RunUntilIdle(0)
	if len(heardFrom[1]) != 2 || dupesOf(overlays[1]) != dupes+1 {
		t.Fatal("a reference to a held set was delivered again")
	}

	overlays[0].SendDirect("n1", &Packet{Kind: KindTxSetReq, TxSetHash: ref.SetHash()})
	overlays[0].SendDirect("n1", &Packet{Kind: KindTxSet, TxSet: &ledger.TxSet{}, TTL: DefaultTTL})
	net.RunUntilIdle(0)
	if direct != 2 {
		t.Fatalf("%d direct packets handed over, want 2", direct)
	}
	for k := KindEnvelope; k <= KindTxSetReq; k++ {
		want := 0.0
		if k == KindTxSetRef {
			want = 1
		}
		if got := packetsSent(overlays[1], k); got != want {
			t.Fatalf("node 1 sent %v %s packets, want %v: it floods only the reference", got, k, want)
		}
	}
}

// TestRefusedIsSeenButNotForwarded: a payload the application refuses stays
// marked seen, under its own bytes, and goes no further; a copy whose
// signature differs by one bit has another id, so whichever of the two
// arrives first, the genuine one is still delivered and forwarded.
func TestRefusedIsSeenButNotForwarded(t *testing.T) {
	net, overlays := buildMesh(t, 3, ringTopology(3)) // a line is enough: 0 – 1 – 2 (and 2 – 0, cut below)
	overlays[0].RemovePeer("n2")
	overlays[2].RemovePeer("n0")
	genuine := testEnvelope(1)
	genuine.Signature = bytes.Repeat([]byte{0x5a}, 64)
	forged := *genuine
	forged.Signature = bytes.Clone(genuine.Signature)
	forged.Signature[63] ^= 1
	for _, first := range []*scp.Envelope{&forged, genuine} {
		var got [3][]byte
		for i, o := range overlays {
			o.seen = seenSet{ids: map[stellarcrypto.Hash]struct{}{}, ring: make([]stellarcrypto.Hash, seenCacheSize)}
			o.OnEnvelope = func(env *scp.Envelope) bool {
				got[i] = append(got[i], env.Signature[63])
				return env.Signature[63] != genuine.Signature[63]
			}
		}
		second := genuine
		if first == genuine {
			second = &forged
		}
		overlays[0].BroadcastEnvelope(first, obs.TraceContext{})
		overlays[0].BroadcastEnvelope(second, obs.TraceContext{})
		net.RunUntilIdle(0)
		want := genuine.Signature[63]
		if len(got[1]) != 2 {
			t.Fatalf("node 1 got %d copies, want both: neither may shadow the other", len(got[1]))
		}
		if len(got[2]) != 1 || got[2][0] != want {
			t.Fatalf("node 2 got %v, want only the genuine copy: the refused one is not forwarded", got[2])
		}
		if !overlays[1].Seen(forged.ID()) || !overlays[1].Seen(genuine.ID()) {
			t.Fatal("a delivered copy is not marked seen")
		}
	}
}

// TestSeenCountsSuppressed: the readers' pre-decode ask counts a duplicate
// as the overlay's own dedup does.
func TestSeenCountsSuppressed(t *testing.T) {
	o := New(simnet.New(1), "a")
	o.SetObs(obs.NewRegistry(), nil)
	env := testEnvelope(1)
	if o.Seen(env.ID()) || dupesOf(o) != 0 {
		t.Fatal("an unseen id reported seen")
	}
	o.BroadcastEnvelope(env, obs.TraceContext{})
	if !o.Seen(env.ID()) || dupesOf(o) != 1 {
		t.Fatalf("a broadcast envelope: seen %v, %v suppressed; want seen, 1", o.Seen(env.ID()), dupesOf(o))
	}
}

// TestSeenConcurrentWithFlooding: connection readers ask the seen set from
// their own goroutines while the node floods and delivers under its loop.
func TestSeenConcurrentWithFlooding(t *testing.T) {
	o := New(simnet.New(1), "a")
	envs := make([]*scp.Envelope, 64)
	for i := range envs {
		envs[i] = testEnvelope(uint64(i))
		envs[i].ID() // ids are computed on the loop before readers race for them
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, env := range envs {
				o.Seen(env.ID())
			}
		}()
	}
	for _, env := range envs {
		o.BroadcastEnvelope(env, obs.TraceContext{})
	}
	wg.Wait()
	for _, env := range envs {
		if !o.Seen(env.ID()) {
			t.Fatal("a broadcast envelope is not seen")
		}
	}
}
