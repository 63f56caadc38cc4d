package herder

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Proposals by reference (txsets.go): what a node does with a reference it
// can rebuild, one it cannot, one it must not, and one nobody should have
// sent — first one node spoken to by hand, then whole seeded networks with
// loss, reordering and pools that differ.

// puppet stands in for a validator: it records what the node under test
// sends it, and the test sends in its name.
type puppet struct {
	net  *simnet.Network
	addr simnet.Addr
	got  []*overlay.Packet
}

// puppetize takes over n's place on the network.
func puppetize(net *simnet.Network, n *Node) *puppet {
	p := &puppet{net: net, addr: n.Addr()}
	net.AddNode(p.addr, simnet.HandlerFunc(func(_ simnet.Addr, msg any, _ int) {
		if pkt, ok := msg.(*overlay.Packet); ok {
			p.got = append(p.got, pkt)
		}
	}))
	return p
}

// send delivers pkt to n in the puppet's name and lets the replies land.
func (p *puppet) send(n *Node, pkt *overlay.Packet) {
	p.net.Send(p.addr, n.Addr(), pkt, 0)
	p.net.RunFor(50 * time.Millisecond)
}

// requests counts the txset_req packets the puppet received for set h.
func (p *puppet) requests(h stellarcrypto.Hash) int {
	c := 0
	for _, pkt := range p.got {
		if pkt.Kind == overlay.KindTxSetReq && pkt.TxSetHash == h {
			c++
		}
	}
	return c
}

// heard reports whether the puppet received the reference or the whole of
// set h.
func (p *puppet) heard(kind overlay.Kind, h stellarcrypto.Hash, nid stellarcrypto.Hash) bool {
	for _, pkt := range p.got {
		if pkt.Kind != kind {
			continue
		}
		if kind == overlay.KindTxSetRef && pkt.TxSetRef.SetHash() == h || kind == overlay.KindTxSet && pkt.TxSet.Hash(nid) == h {
			return true
		}
	}
	return false
}

// wiredSet is ts as TCP would deliver it: decoded afresh from its encoding.
func wiredSet(t *testing.T, ts *ledger.TxSet) *ledger.TxSet {
	t.Helper()
	e := xdr.NewEncoder(1 << 12)
	ts.EncodeXDR(e)
	out, err := ledger.DecodeTxSetXDR(xdr.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func refPacket(ts *ledger.TxSet, nid stellarcrypto.Hash, origin simnet.Addr) *overlay.Packet {
	return &overlay.Packet{Kind: overlay.KindTxSetRef, TxSetRef: ts.Ref(nid), TTL: overlay.DefaultTTL, Origin: origin}
}

// resignedCopy is tx under other signature bytes: same payload, same hash,
// and as valid — the hint is advisory — but another envelope.
func resignedCopy(tx *ledger.Transaction) *ledger.Transaction {
	cp := &ledger.Transaction{Source: tx.Source, Fee: tx.Fee, SeqNum: tx.SeqNum, TimeBounds: tx.TimeBounds,
		Memo: tx.Memo, Operations: tx.Operations}
	for _, s := range tx.Signatures {
		s.Hint[0] ^= 0xff
		cp.Signatures = append(cp.Signatures, s)
	}
	return cp
}

func refCount(n *Node, o refOutcome) float64 { return n.ins.txsetRefs[o].Value() }

// onePuppeted closes a few ledgers on a funded trio, then leaves node 2 the
// only real validator: its two peers are puppets.
func onePuppeted(t *testing.T) (*simnet.Network, *Node, *puppet, *puppet, stellarcrypto.Hash, []*payer) {
	t.Helper()
	net, nodes, nid, payers := buildFunded(t, 8, nil)
	for _, n := range nodes {
		n.Start()
	}
	closeLedgers(t, net, nodes[2], 3, func() {})
	return net, nodes[2], puppetize(net, nodes[0]), puppetize(net, nodes[1]), nid, payers
}

// TestTxSetRefMissAndMismatch speaks to one node by hand: a reference it
// holds every transaction of is rebuilt without a word; one naming a
// transaction it lacks, or holds under other signature bytes, makes it ask
// the sender for the whole set — once per peer, the next peer when the
// first stays silent — and what it then holds is the set as received, which
// it only now passes on.
func TestTxSetRefMissAndMismatch(t *testing.T) {
	net, n, a, b, nid, payers := onePuppeted(t)
	prev := n.LastHeader().Hash()
	var txs []*ledger.Transaction
	for i, p := range payers {
		txs = append(txs, p.payment(nid, payers[(i+1)%len(payers)].id))
	}
	pooled := txs[:6]
	for _, tx := range pooled {
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	net.RunFor(50 * time.Millisecond)

	// Everything listed is pooled: resolved, forwarded, nobody asked.
	easy := &ledger.TxSet{PrevLedgerHash: prev, Txs: pooled[:5]}
	a.send(n, refPacket(easy, nid, a.addr))
	if got := n.txsets[easy.Hash(nid)]; got == nil || refCount(n, refResolved) != 1 {
		t.Fatalf("a reference to pooled transactions was not rebuilt (resolved=%v)", refCount(n, refResolved))
	} else {
		for i, tx := range got.Txs {
			if tx != n.pool.Get(pooled[i].Hash(nid)) {
				t.Fatalf("rebuilt set element %d is not the pool's instance", i)
			}
		}
	}
	if a.requests(easy.Hash(nid)) != 0 || !b.heard(overlay.KindTxSetRef, easy.Hash(nid), nid) || a.heard(overlay.KindTxSetRef, easy.Hash(nid), nid) {
		t.Fatal("a rebuilt reference must be forwarded to the other peer, and nothing asked of the sender")
	}

	// One listed transaction is missing. The first peer never answers; the
	// second to deliver the reference is asked; the first is not asked again.
	miss := &ledger.TxSet{PrevLedgerHash: prev, Txs: txs}
	mh := miss.Hash(nid)
	a.send(n, refPacket(miss, nid, a.addr))
	if a.requests(mh) != 1 || b.requests(mh) != 0 {
		t.Fatalf("after the first delivery: %d requests to the sender, %d to the other peer, want 1 and 0", a.requests(mh), b.requests(mh))
	}
	if n.txsets[mh] != nil || b.heard(overlay.KindTxSetRef, mh, nid) {
		t.Fatal("a reference was forwarded, or a set held, before the set arrived")
	}
	b.send(n, refPacket(miss, nid, a.addr))
	a.send(n, refPacket(miss, nid, a.addr))
	b.send(n, refPacket(miss, nid, a.addr))
	if a.requests(mh) != 1 || b.requests(mh) != 1 {
		t.Fatalf("%d requests to the first peer and %d to the second, want one each", a.requests(mh), b.requests(mh))
	}
	// An answer nobody asked for — another set, or this one from a stranger
	// — is not held.
	unasked := &ledger.TxSet{PrevLedgerHash: prev, Txs: txs[6:]}
	n.ov.HandleMessage("stranger", &overlay.Packet{Kind: overlay.KindTxSet, TxSet: wiredSet(t, miss)}, 0)
	a.send(n, &overlay.Packet{Kind: overlay.KindTxSet, TxSet: wiredSet(t, unasked)})
	if n.txsets[mh] != nil || n.txsets[unasked.Hash(nid)] != nil {
		t.Fatal("a whole set nobody asked that peer for was held")
	}
	b.send(n, &overlay.Packet{Kind: overlay.KindTxSet, TxSet: wiredSet(t, miss)})
	got := n.txsets[mh]
	if got == nil || refCount(n, refFetched) != 1 {
		t.Fatalf("the requested set was not held (fetched=%v)", refCount(n, refFetched))
	}
	if !a.heard(overlay.KindTxSetRef, mh, nid) {
		t.Fatal("the reference was not passed on once the set was held")
	}
	a.send(n, &overlay.Packet{Kind: overlay.KindTxSet, TxSet: wiredSet(t, miss)}) // the late first answer
	if n.txsets[mh] != got || refCount(n, refFetched) != 1 {
		t.Fatal("a second answer replaced the held set")
	}

	// The pool holds one listed transaction under other signature bytes: it
	// must not stand in. The set is fetched and kept as received, sharing
	// with the pool only the envelopes that are the same bytes.
	n2tx := payers[0].payment(nid, payers[1].id)
	if err := n.SubmitTx(resignedCopy(n2tx)); err != nil {
		t.Fatal(err)
	}
	other := &ledger.TxSet{PrevLedgerHash: prev, Txs: append([]*ledger.Transaction{n2tx}, pooled...)}
	oh := other.Hash(nid)
	if mine := n.pool.Get(n2tx.Hash(nid)); mine == nil || bytes.Equal(mine.MarshalSignedXDR(), n2tx.MarshalSignedXDR()) {
		t.Fatal("setup: the pool does not hold the transaction under other signature bytes")
	}
	b.send(n, refPacket(other, nid, a.addr))
	if b.requests(oh) != 1 || n.txsets[oh] != nil {
		t.Fatal("a reference whose envelope digest the pool cannot match must be fetched, not rebuilt")
	}
	b.send(n, &overlay.Packet{Kind: overlay.KindTxSet, TxSet: wiredSet(t, other)})
	got = n.txsets[oh]
	if got == nil {
		t.Fatal("fetched set not held")
	}
	if !bytes.Equal(encodeTxSet(got), encodeTxSet(other)) {
		t.Fatal("held set does not encode to the proposer's bytes")
	}
	if got.Txs[0] == n.pool.Get(n2tx.Hash(nid)) {
		t.Fatal("the pool's differently signed copy was substituted")
	}
	for i, tx := range got.Txs[1:] {
		if tx != n.pool.Get(tx.Hash(nid)) {
			t.Fatalf("element %d: same envelope as the pool's, yet not the pool's instance", i+1)
		}
	}
}

func encodeTxSet(ts *ledger.TxSet) []byte {
	e := xdr.NewEncoder(1 << 12)
	ts.EncodeXDR(e)
	return bytes.Clone(e.Bytes())
}

// TestTxSetRefStaleUnknownAndHostile: a reference for a ledger already
// closed is dropped without a request; one on an unknown ledger is handled
// like any other; a malformed one, a request for a set nobody holds and a
// repeated request cost nothing.
func TestTxSetRefStaleUnknownAndHostile(t *testing.T) {
	_, n, a, b, nid, payers := onePuppeted(t)
	tip := n.LastHeader().LedgerSeq
	tx := payers[0].payment(nid, payers[1].id)

	closedOn, _ := n.HeaderHash(tip - 1)
	stale := &ledger.TxSet{PrevLedgerHash: closedOn, Txs: []*ledger.Transaction{tx}}
	a.send(n, refPacket(stale, nid, a.addr))
	if a.requests(stale.Hash(nid)) != 0 || refCount(n, refIgnored) != 1 || b.heard(overlay.KindTxSetRef, stale.Hash(nid), nid) {
		t.Fatalf("a reference for a closed ledger: %d requests, ignored=%v", a.requests(stale.Hash(nid)), refCount(n, refIgnored))
	}

	ahead := &ledger.TxSet{PrevLedgerHash: stellarcrypto.HashBytes([]byte("a ledger not reached yet")), Txs: []*ledger.Transaction{tx}}
	a.send(n, refPacket(ahead, nid, a.addr))
	if a.requests(ahead.Hash(nid)) != 1 {
		t.Fatal("a reference on an unknown ledger, naming an unknown transaction, was not fetched")
	}
	a.send(n, &overlay.Packet{Kind: overlay.KindTxSet, TxSet: wiredSet(t, ahead)})
	if n.txsets[ahead.Hash(nid)] == nil {
		t.Fatal("the fetched set was not held")
	}

	// Hand-built, so no decoder stood in the way: one transaction twice.
	twice := &ledger.TxSetRef{PrevLedgerHash: n.LastHeader().Hash(), TxHashes: []stellarcrypto.Hash{tx.Hash(nid), tx.Hash(nid)}}
	a.send(n, &overlay.Packet{Kind: overlay.KindTxSetRef, TxSetRef: twice, TTL: 3, Origin: a.addr})
	if a.requests(twice.SetHash()) != 0 || refCount(n, refIgnored) != 2 {
		t.Fatal("a reference listing a transaction twice was not refused")
	}

	// Requests: an unknown set gets no answer; a held one is served once
	// per peer.
	held := ahead.Hash(nid)
	served := func(p *puppet) int {
		c := 0
		for _, pkt := range p.got {
			if pkt.Kind == overlay.KindTxSet && pkt.TxSet.Hash(nid) == held {
				c++
			}
		}
		return c
	}
	a.send(n, &overlay.Packet{Kind: overlay.KindTxSetReq, TxSetHash: stellarcrypto.HashBytes([]byte("no such set"))})
	a.send(n, &overlay.Packet{Kind: overlay.KindTxSetReq, TxSetHash: held})
	a.send(n, &overlay.Packet{Kind: overlay.KindTxSetReq, TxSetHash: held})
	b.send(n, &overlay.Packet{Kind: overlay.KindTxSetReq, TxSetHash: held})
	if served(a) != 1 || served(b) != 1 || n.ins.txsetServed.Value() != 2 {
		t.Fatalf("served %d and %d whole sets (counter %v), want one per asking peer", served(a), served(b), n.ins.txsetServed.Value())
	}
	for _, p := range []*puppet{a, b} {
		for _, pkt := range p.got {
			if pkt.Kind == overlay.KindTxSet && pkt.TxSet.Hash(nid) != held {
				t.Fatal("a whole set was sent that nobody asked for")
			}
		}
	}
}

// TestTxSetRefFetchedWithinTheRound: on a live trio one node lacks a
// transaction its peers propose. It asks each peer at most once per set,
// holds the reply, echoes in the same nomination round — no timeout — and
// closes the ledger with the others, who rebuild its smaller proposal from
// their pools; arriving references leave the recv-txset trace marker whole
// sets used to; an unanswered request is counted when its record is dropped.
func TestTxSetRefFetchedWithinTheRound(t *testing.T) {
	var clock *simnet.Network // the tracer's, bound once the network exists
	tracer := obs.NewTracer(func() time.Duration {
		if clock == nil {
			return 0
		}
		return clock.Now()
	})
	net, nodes, nid, payers := buildFunded(t, 20, func(cfgs []*Config) {
		for _, c := range cfgs {
			c.Obs = &obs.Obs{Tracer: tracer}
		}
	})
	clock = net
	type link struct {
		set      stellarcrypto.Hash
		from, to simnet.Addr
	}
	asked := make(map[link]int)
	wholeSets := 0
	for _, n := range nodes {
		n := n
		net.AddNode(n.Addr(), simnet.HandlerFunc(func(from simnet.Addr, msg any, size int) {
			if p, ok := msg.(*overlay.Packet); ok {
				switch p.Kind {
				case overlay.KindTxSetReq:
					asked[link{p.TxSetHash, from, n.Addr()}]++
				case overlay.KindTxSet:
					wholeSets++
				}
			}
			n.ov.HandleMessage(from, msg, size)
		}))
		n.Start()
	}
	closeLedgers(t, net, nodes[0], 2, func() {})
	victim := nodes[2]
	var lost stellarcrypto.Hash
	closeLedgers(t, net, nodes[0], 1, func() {
		for i, p := range payers {
			tx := p.payment(nid, payers[(i+1)%len(payers)].id)
			if err := nodes[i%2].SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
			lost = tx.Hash(nid)
		}
		net.RunFor(100 * time.Millisecond) // floods land
		victim.pool.PruneStale(func(tx *ledger.Transaction) bool { return tx.Hash(nid) == lost })
		if victim.pool.Len() != len(payers)-1 {
			t.Fatalf("setup: victim pools %d transactions, want %d", victim.pool.Len(), len(payers)-1)
		}
	})
	net.RunFor(200 * time.Millisecond)
	sameChain(t, nodes[0], victim, 1)
	if victim.lastLedgerTxs != len(payers) {
		t.Fatalf("victim's last ledger applied %d transactions, want all %d", victim.lastLedgerTxs, len(payers))
	}
	if len(asked) == 0 || refCount(victim, refFetched) == 0 {
		t.Fatalf("the victim never fetched: %d requests, fetched=%v", len(asked), refCount(victim, refFetched))
	}
	for l, c := range asked {
		if c != 1 || l.from != victim.Addr() {
			t.Fatalf("%d requests for one set over one link (from %s), want one, and only from the victim", c, shortID(string(l.from)))
		}
	}
	if wholeSets != len(asked) {
		t.Fatalf("%d whole sets travelled for %d requests: a whole set is only ever a reply", wholeSets, len(asked))
	}
	for i, n := range nodes {
		if v := n.ins.timeouts.With("nomination").Value(); v != 0 {
			t.Fatalf("node %d: %v nomination timeouts: the fetch did not finish inside the round", i, v)
		}
		if n != victim && refCount(n, refResolved) == 0 {
			t.Fatalf("node %d never rebuilt the victim's proposal from its pool", i)
		}
	}
	if c := tracer.Decompose().Phase("recv-txset").Count; c == 0 {
		t.Fatal("no recv-txset marker recorded for the references that arrived")
	}

	// A request that is never answered is counted once its record ages out.
	victim.txsetAsked[txsetPeer{stellarcrypto.HashBytes([]byte("lost")), nodes[0].Addr()}] = victim.LastHeader().LedgerSeq
	closeLedgers(t, net, nodes[0], txsetKeep+2, func() {})
	net.RunFor(200 * time.Millisecond)
	if refCount(victim, refUnanswered) != 1 || len(victim.txsetAsked) != 0 || len(victim.txsetServed) != 0 {
		t.Fatalf("unanswered=%v with %d request and %d served records left, want 1, 0, 0",
			refCount(victim, refUnanswered), len(victim.txsetAsked), len(victim.txsetServed))
	}
}

// TestRebroadcastSendsOpenSlotReferences: anti-entropy re-floods references,
// never whole sets, and only those an undecided slot can still name.
func TestRebroadcastSendsOpenSlotReferences(t *testing.T) {
	net, n, a, b, nid, _ := onePuppeted(t)
	net.RunFor(n.cfg.LedgerInterval) // alone now, it proposes for a slot that stays open
	if len(n.txsets) < 2 {
		t.Fatalf("setup: node holds %d sets, want those of closed slots too", len(n.txsets))
	}
	a.got, b.got = nil, nil
	n.RebroadcastLatest()
	net.RunFor(50 * time.Millisecond)
	open := 0
	for h, ts := range n.txsets {
		if ts.PrevLedgerHash == n.LastHeader().Hash() {
			open++
			if !a.heard(overlay.KindTxSetRef, h, nid) || !b.heard(overlay.KindTxSetRef, h, nid) {
				t.Fatal("an open slot's reference was not re-flooded")
			}
		}
	}
	refs := 0
	for _, pkt := range a.got {
		switch pkt.Kind {
		case overlay.KindTxSet:
			t.Fatal("a whole set was re-flooded")
		case overlay.KindTxSetRef:
			refs++
		}
	}
	if open == 0 || refs != open {
		t.Fatalf("%d references re-flooded, %d sets are for the open slot", refs, open)
	}
}

// proposalTap is the network as the nodes of one test see it: it notes every
// reference a node floods from inside one of its own timers — which only the
// ledger trigger does — that is, every proposal at the moment it was sealed,
// whether or not the network then loses it.
type proposalTap struct {
	*simnet.Network
	inTimer  bool
	proposed func(from simnet.Addr, ref *ledger.TxSetRef)
}

func (p *proposalTap) After(owner simnet.Addr, d time.Duration, fn func()) *simnet.Timer {
	return p.Network.After(owner, d, func() {
		p.inTimer = true
		defer func() { p.inTimer = false }()
		fn()
	})
}

func (p *proposalTap) Send(from, to simnet.Addr, msg any, size int) {
	if pkt, ok := msg.(*overlay.Packet); ok && p.inTimer && pkt.Kind == overlay.KindTxSetRef && pkt.Origin == from {
		p.proposed(from, pkt.TxSetRef)
	}
	p.Network.Send(from, to, msg, size)
}

// TestProposalsByReferenceUnderLossAndReordering is the network half of the
// property (the ledger half is TestTxSetRefResolvesToTheProposersBytesOrNothing):
// seeded trios with 5 % loss, message reordering and pools that differ — in
// what they hold and in the signature bytes they hold it under — close every
// ledger, on one chain, and what each node applies re-encodes to exactly the
// bytes of a set its proposer sealed. (Two proposers can seal different
// bytes under one set hash, which does not cover signatures; each node then
// applies one of the two, never a mixture.)
func TestProposalsByReferenceUnderLossAndReordering(t *testing.T) {
	const seeds = 20
	const ledgers = 10
	var resolved, fetched float64
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net := simnet.New(seed)
			tap := &proposalTap{Network: net}
			nodes, nid, payers := buildFundedOn(t, net, tap, 24, nil)
			net.SetLatency(simnet.UniformLatency(2*time.Millisecond, 60*time.Millisecond))
			net.SetDropRate(0.05)
			byAddr := make(map[simnet.Addr]*Node)
			sealed := make(map[stellarcrypto.Hash][][]byte) // set hash → the bytes each proposer sealed under it
			tap.proposed = func(from simnet.Addr, ref *ledger.TxSetRef) {
				h := ref.SetHash()
				sealed[h] = append(sealed[h], encodeTxSet(byAddr[from].txsets[h]))
			}
			withTxs := 0
			for _, n := range nodes {
				n := n
				byAddr[n.Addr()] = n
				n.OnLedgerClose = func(h *ledger.Header, _ []ledger.TxResult) {
					applied := encodeTxSet(n.txsets[h.TxSetHash])
					if !slices.ContainsFunc(sealed[h.TxSetHash], func(b []byte) bool { return bytes.Equal(b, applied) }) {
						t.Errorf("ledger %d: node %s applied a set that does not encode to the bytes of any of the %d proposals sealed under its hash",
							h.LedgerSeq, shortID(string(n.Addr())), len(sealed[h.TxSetHash]))
					}
					if n == nodes[0] && len(n.txsets[h.TxSetHash].Txs) > 0 {
						withTxs++
					}
				}
				n.Start()
			}
			target := nodes[0].LastHeader().LedgerSeq + ledgers
			behind := func() bool {
				for _, n := range nodes {
					if n.LastHeader().LedgerSeq < target {
						return true
					}
				}
				return false
			}
			for round := 0; behind(); round++ {
				if round > 20*ledgers {
					t.Fatalf("nodes at %d, %d, %d after %v: not every node closes every ledger",
						nodes[0].LastHeader().LedgerSeq, nodes[1].LastHeader().LedgerSeq, nodes[2].LastHeader().LedgerSeq, net.Now())
				}
				if round%4 == 0 {
					// One payment per payer and ledger, spread over the nodes;
					// every third goes to a second node under other signature
					// bytes at the same instant, so pools disagree on envelopes.
					for i, p := range payers {
						p.seq = nodes[0].State().Account(p.id).SeqNum
						tx := p.payment(nid, payers[(i+1)%len(payers)].id)
						_ = nodes[(i+round)%3].SubmitTx(tx)
						if i%3 == 0 {
							_ = nodes[(i+round+1)%3].SubmitTx(resignedCopy(tx))
						}
					}
				}
				net.RunFor(nodes[0].cfg.LedgerInterval / 4)
				for _, n := range nodes {
					n.RebroadcastLatest() // anti-entropy against the loss
				}
			}
			sameChain(t, nodes[0], nodes[1], 1)
			sameChain(t, nodes[0], nodes[2], 1)
			if withTxs < ledgers/2 {
				t.Fatalf("only %d of %d ledgers carried transactions", withTxs, ledgers)
			}
			for _, n := range nodes {
				resolved += refCount(n, refResolved)
				fetched += refCount(n, refFetched)
			}
		})
	}
	if resolved == 0 || fetched == 0 {
		t.Fatalf("over %d seeds %v references were rebuilt and %v fetched: both paths must run", seeds, resolved, fetched)
	}
}
