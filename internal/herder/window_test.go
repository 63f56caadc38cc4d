package herder

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/transport"
	"stellar/internal/xdr"
)

// What a validator holds per closed ledger, and how a lagging peer is served
// from it (catchup.go): a durable node serves from its archive and keeps no
// window, one without an archive keeps its last 128 ledgers, a received set
// is built from the pool's instances, and a reply is bounded by bytes.

// payment is p's next transaction: one stroop-sized payment to another payer.
func (p *payer) payment(nid stellarcrypto.Hash, to ledger.AccountID) *ledger.Transaction {
	p.seq++
	tx := &ledger.Transaction{
		Source: p.id, Fee: ledger.DefaultBaseFee, SeqNum: p.seq,
		Operations: []ledger.Operation{{
			Body: &ledger.Payment{Destination: to, Asset: ledger.NativeAsset(), Amount: 1},
		}},
	}
	tx.Sign(nid, p.kp)
	return tx
}

// bulk is p's next transaction at the size limit: 100 operations of about
// 160 bytes each under one signature, so ten of them are a full 1000-op
// ledger of about 160 KB for the price of ten signatures. The data entries
// are overwritten in place from ledger to ledger.
func (p *payer) bulk(nid stellarcrypto.Hash) *ledger.Transaction {
	p.seq++
	tx := &ledger.Transaction{Source: p.id, Fee: 100 * ledger.DefaultBaseFee, SeqNum: p.seq}
	for i := 0; i < 100; i++ {
		tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.ManageData{
			Name:  fmt.Sprintf("%064d", i),
			Value: bytes.Repeat([]byte{byte(p.seq)}, 64),
		}})
	}
	tx.Sign(nid, p.kp)
	return tx
}

// closeLedgers runs the network until lead has closed k more ledgers,
// calling submit right after each close (and once at the start), so that
// what it submits is pooled everywhere well before the next trigger.
func closeLedgers(t *testing.T, net *simnet.Network, lead *Node, k int, submit func()) {
	t.Helper()
	for i := 0; i < k; i++ {
		submit()
		want := lead.LastHeader().LedgerSeq + 1
		for waited := 0; lead.LastHeader().LedgerSeq < want; waited++ {
			if waited > 200 {
				t.Fatalf("ledger %d did not close within %d intervals", want, waited/20)
			}
			net.RunFor(lead.cfg.LedgerInterval / 20)
		}
	}
}

// durable gives every node its own archive, like stellar-node -data-dir.
func durable(t *testing.T) func(cfgs []*Config) {
	return func(cfgs []*Config) {
		for _, c := range cfgs {
			a, err := history.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c.Archive = a
		}
	}
}

// catchupTap holds the catch-up replies delivered to a node and their
// arrival times.
type catchupTap struct {
	replies []*overlay.Packet
	at      []time.Duration
}

// tapCatchup puts a tap in front of n's message handler.
func tapCatchup(net *simnet.Network, n *Node) *catchupTap {
	tap := &catchupTap{}
	net.AddNode(n.Addr(), simnet.HandlerFunc(func(from simnet.Addr, msg any, size int) {
		if p, ok := msg.(*overlay.Packet); ok && p.Kind == overlay.KindCatchupResp {
			tap.replies = append(tap.replies, p)
			tap.at = append(tap.at, net.Now())
		}
		n.ov.HandleMessage(from, msg, size)
	}))
	return tap
}

// rejoin brings a downed node back and runs the network, with the
// anti-entropy rebroadcast a real node's timer does, until it stands at the
// others' tip.
func rejoin(t *testing.T, net *simnet.Network, nodes []*Node, victim *Node) {
	t.Helper()
	net.SetUp(victim.Addr())
	for i := 0; victim.LastHeader().LedgerSeq+1 < nodes[0].LastHeader().LedgerSeq; i++ {
		if i > 40 {
			t.Fatalf("victim at %d, network at %d", victim.LastHeader().LedgerSeq, nodes[0].LastHeader().LedgerSeq)
		}
		for _, n := range nodes {
			n.RebroadcastLatest()
		}
		net.RunFor(victim.cfg.LedgerInterval)
	}
}

// sameChain fails unless a and b hold the same header hash at every ledger
// from `from` to the lower of their tips.
func sameChain(t *testing.T, a, b *Node, from uint32) {
	t.Helper()
	tip := min(a.LastHeader().LedgerSeq, b.LastHeader().LedgerSeq)
	if tip < from {
		t.Fatalf("tips %d and %d below %d", a.LastHeader().LedgerSeq, b.LastHeader().LedgerSeq, from)
	}
	for seq := from; seq <= tip; seq++ {
		ha, oka := a.HeaderHash(seq)
		hb, okb := b.HeaderHash(seq)
		if !oka || !okb || ha != hb {
			t.Fatalf("ledger %d: headers differ (%v %s, %v %s)", seq, oka, ha, okb, hb)
		}
	}
}

// TestWindowKeepsFactsNotBodies: three durable nodes close 160 ledgers of
// 200 transactions. Their windows are empty — so no transaction is
// reachable from a node except through its pool and the sets of its open
// slots — yet every ledger of the last 128 is still servable, and a peer's
// proposal decoded from the wire is stored as the pool's instances. A
// fourth validator without an archive, whose bucket list is all in RAM,
// closes the same headers at every ledger, through the spills into levels
// 1–3 that the durable three merge on disk; it keeps the last 128 ledgers,
// so a request that starts before them is answered by a durable peer and
// not by it.
func TestWindowKeepsFactsNotBodies(t *testing.T) {
	const perLedger = 200
	net, nodes, nid, payers := buildFunded(t, perLedger, durable(t))
	memOnly := inMemoryPeer(t, nodes)
	for _, n := range append([]*Node{memOnly}, nodes...) {
		n.Start()
	}
	submit := func() {
		for i, p := range payers {
			if err := nodes[i%len(nodes)].SubmitTx(p.payment(nid, payers[(i+1)%len(payers)].id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	closeLedgers(t, net, nodes[0], 160, submit)

	if memOnly.buckets.Store() != nil {
		t.Fatal("a node without an archive has a bucket store")
	}
	if memOnly.LastHeader().LedgerSeq+1 < nodes[0].LastHeader().LedgerSeq {
		t.Fatalf("in-memory peer at %d, network at %d", memOnly.LastHeader().LedgerSeq, nodes[0].LastHeader().LedgerSeq)
	}
	for _, n := range nodes {
		sameChain(t, memOnly, n, 1)
	}

	if len(memOnly.recent) != recentWindow {
		t.Fatalf("in-memory peer: window of %d ledgers, want %d", len(memOnly.recent), recentWindow)
	}
	early := nodes[0].LastHeader().LedgerSeq - 150
	for name, server := range map[string]*Node{"durable": nodes[0], "in-memory": memOnly} {
		before := net.Stats().MessagesSent
		server.serveCatchup(nodes[1].Addr(), early)
		if answered, want := net.Stats().MessagesSent != before, server == nodes[0]; answered != want {
			t.Fatalf("%s peer answered a request from ledger %d: %v, want %v", name, early, answered, want)
		}
	}
	for i, n := range nodes {
		if len(n.recent) != 0 {
			t.Fatalf("node %d: window of %d ledgers beside the archive", i, len(n.recent))
		}
		reachable := make(map[*ledger.Transaction]bool)
		n.pool.Each(func(_ stellarcrypto.Hash, tx *ledger.Transaction) { reachable[tx] = true })
		open := 0
		for _, ts := range n.txsets {
			open += len(ts.Txs)
			for _, tx := range ts.Txs {
				reachable[tx] = true
			}
		}
		bound := n.pool.Len() + open
		applied := 0
		for seq := n.LastHeader().LedgerSeq - recentWindow + 1; seq <= n.LastHeader().LedgerSeq; seq++ {
			it, ok := n.ledgerAt(seq)
			if want, _ := n.HeaderHash(seq); !ok || it.Header.Hash() != want {
				t.Fatalf("node %d: ledger %d cannot be served", i, seq)
			}
			applied += len(it.TxSet.Txs)
		}
		if applied < (recentWindow-2)*perLedger {
			t.Fatalf("node %d: window covers %d transactions, want about %d", i, applied, recentWindow*perLedger)
		}
		if len(reachable) > bound {
			t.Fatalf("node %d: %d transactions reachable, pool + open-slot sets hold %d", i, len(reachable), bound)
		}
	}

	// A peer's proposal as the wire delivers it: every transaction decoded
	// afresh, one of them unknown to this node's pool.
	n := nodes[1]
	submit()
	net.RunFor(100 * time.Millisecond) // floods land; the next trigger is a ledger interval away
	stranger := &payer{id: payers[0].id, kp: payers[0].kp, seq: payers[0].seq + 10}
	proposal := &ledger.TxSet{PrevLedgerHash: n.LastHeader().Hash(), Txs: []*ledger.Transaction{stranger.payment(nid, payers[1].id)}}
	n.pool.Each(func(_ stellarcrypto.Hash, tx *ledger.Transaction) { proposal.Txs = append(proposal.Txs, tx) })
	if len(proposal.Txs) != perLedger+1 {
		t.Fatalf("setup: pool holds %d transactions, want %d", len(proposal.Txs)-1, perLedger)
	}
	e := xdr.NewEncoder(1 << 16)
	proposal.EncodeXDR(e)
	decoded, err := ledger.DecodeTxSetXDR(xdr.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n.onTxSet(decoded)
	stored := n.txsets[decoded.Hash(nid)]
	if stored == nil || stored.Hash(nid) != proposal.Hash(nid) {
		t.Fatal("received set not stored under its hash")
	}
	shared := 0
	for _, tx := range stored.Txs {
		if n.pool.Get(tx.Hash(nid)) == tx {
			shared++
		}
	}
	if shared*100 < 95*len(stored.Txs) {
		t.Fatalf("stored set shares %d of %d transactions with the pool, want >= 95%%", shared, len(stored.Txs))
	}
}

// lagBehind closes `ledgers` ledgers of `submit`'s load on the first two
// nodes while the third is down, and returns the third.
func lagBehind(t *testing.T, net *simnet.Network, nodes []*Node, ledgers int, submit func()) *Node {
	t.Helper()
	for _, n := range nodes {
		n.Start()
	}
	closeLedgers(t, net, nodes[0], 3, func() {})
	victim := nodes[2]
	net.SetDown(victim.Addr())
	closeLedgers(t, net, nodes[0], ledgers, submit)
	if behind := nodes[0].LastHeader().LedgerSeq - victim.LastHeader().LedgerSeq; int(behind) < ledgers {
		t.Fatalf("setup: victim only %d ledgers behind", behind)
	}
	return victim
}

// TestCatchupFarBehind: a node 60 full ledgers behind durable peers — more
// bytes than one frame can carry — is served from their disks in replies
// that each fit the budget, asks for the next part as soon as one applied
// rather than once per ledger interval, and ends on the peers' chain.
func TestCatchupFarBehind(t *testing.T) {
	net, nodes, nid, payers := buildFunded(t, 10, durable(t))
	victim := lagBehind(t, net, nodes, 60, func() {
		for i, p := range payers {
			if err := nodes[i%2].SubmitTx(p.bulk(nid)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := nodes[0].lastLedgerTxs; got != len(payers) {
		t.Fatalf("setup: last ledger carries %d transactions, want %d full-size ones", got, len(payers))
	}
	tap := tapCatchup(net, victim)
	rejoin(t, net, nodes, victim)
	sameChain(t, victim, nodes[0], 1)

	total := 0
	for i, p := range tap.replies {
		payload, err := transport.EncodePacket(p)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		frame, err := transport.AppendFrame(nil, transport.FramePacket, payload)
		if err != nil {
			t.Fatalf("reply %d cannot be framed: %v", i, err)
		}
		if len(frame) > catchupReplyBytes {
			t.Fatalf("reply %d is a %d-byte frame, budget %d", i, len(frame), catchupReplyBytes)
		}
		total += len(frame)
	}
	if total <= transport.MaxFramePayload {
		t.Fatalf("setup: the gap is %d bytes, no more than one frame's limit %d", total, transport.MaxFramePayload)
	}
	// The first replies cover the 60 ledgers; they must arrive back to back.
	parts := (total + catchupReplyBytes - 1) / catchupReplyBytes
	if len(tap.replies) < parts {
		t.Fatalf("%d replies for %d bytes", len(tap.replies), total)
	}
	if took := tap.at[parts-1] - tap.at[0]; took >= victim.cfg.LedgerInterval {
		t.Fatalf("%d replies took %v: the next part was not requested until a ledger interval passed", parts, took)
	}
}

// TestCatchupFromDiskMatchesMemory: catching up 60 ledgers from peers that
// serve from their archives and from peers that hold the sets in memory ends
// on the same headers; and an archived set that is torn or missing ends a
// reply before it.
func TestCatchupFromDiskMatchesMemory(t *testing.T) {
	run := func(mutate func([]*Config)) (*simnet.Network, []*Node, *Node) {
		net, nodes, nid, payers := buildFunded(t, 5, mutate)
		victim := lagBehind(t, net, nodes, 60, func() {
			for i, p := range payers {
				if err := nodes[i%2].SubmitTx(p.payment(nid, payers[(i+1)%len(payers)].id)); err != nil {
					t.Fatal(err)
				}
			}
		})
		rejoin(t, net, nodes, victim)
		sameChain(t, victim, nodes[0], 1)
		return net, nodes, victim
	}
	_, _, fromMemory := run(nil)
	net, nodes, fromDisk := run(durable(t))
	sameChain(t, fromDisk, fromMemory, 1)

	server := nodes[0]
	if len(server.recent) != 0 {
		t.Fatalf("durable server holds %d ledgers in its window", len(server.recent))
	}
	tip := server.LastHeader().LedgerSeq
	tap := tapCatchup(net, fromDisk)
	served := func(from uint32) []overlay.CatchupItem {
		tap.replies = nil
		server.serveCatchup(fromDisk.Addr(), from)
		net.RunFor(50 * time.Millisecond)
		if len(tap.replies) == 0 {
			return nil
		}
		return tap.replies[0].CatchupItems
	}
	if got := served(tip - 40); len(got) != 41 {
		t.Fatalf("intact archive: served %d ledgers, want 41", len(got))
	}
	dir := server.cfg.Archive.Dir()
	torn := filepath.Join(dir, fmt.Sprintf("txsets/%08d.xdr", tip-20))
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := served(tip - 40); len(got) != 20 || got[len(got)-1].Header.LedgerSeq != tip-21 {
		t.Fatalf("torn set at %d: served %d ledgers, want the 20 before it", tip-20, len(got))
	}
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("txsets/%08d.xdr", tip-30))); err != nil {
		t.Fatal(err)
	}
	if got := served(tip - 40); len(got) != 10 {
		t.Fatalf("missing set at %d: served %d ledgers, want the 10 before it", tip-30, len(got))
	}
	if got := served(tip - 30); got != nil {
		t.Fatalf("missing first set: served %d ledgers, want no reply", len(got))
	}
}

// TestArchiveWriteErrorKeepsBody: while the archive refuses transaction
// sets, the failures are counted and the window keeps the bodies, so the
// ledgers stay servable; once it accepts them again the window stops.
func TestArchiveWriteErrorKeepsBody(t *testing.T) {
	net, nodes, _ := buildPair(t, durable(t))
	for _, n := range nodes {
		n.Start()
	}
	n := nodes[0]
	closeLedgers(t, net, n, 3, func() {})
	// A file where the directory should be: writes fail whoever runs the test.
	txsets := filepath.Join(n.cfg.Archive.Dir(), "txsets")
	if err := os.Rename(txsets, txsets+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txsets, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	broken := n.LastHeader().LedgerSeq + 1
	closeLedgers(t, net, n, 3, func() {})
	if err := os.Remove(txsets); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(txsets+".aside", txsets); err != nil {
		t.Fatal(err)
	}
	mended := n.LastHeader().LedgerSeq + 1
	closeLedgers(t, net, n, 8, func() {}) // past the open-slot sets' few ledgers

	if got := n.ins.archiveErrors.With("txset").Value(); got != float64(mended-broken) {
		t.Fatalf("history_write_errors_total{file=txset} = %v, want %d", got, mended-broken)
	}
	for seq := uint32(2); seq <= n.LastHeader().LedgerSeq; seq++ {
		_, held := n.recent[seq]
		if want := seq >= broken && seq < mended; held != want {
			t.Fatalf("ledger %d: window holds it = %v, want %v", seq, held, want)
		}
		if _, ok := n.ledgerAt(seq); !ok {
			t.Fatalf("ledger %d cannot be served", seq)
		}
	}
}

// lateEnv is a hand-cranked simnet.Env for one node. Deferred work runs only
// when the test says so, after the clock has moved — the way a wall clock
// moves between a slot's externalize and the end of its apply, and the
// simulator's never does.
type lateEnv struct {
	now      time.Duration
	deferred []func()
	timers   []lateTimer
}

type lateTimer struct {
	at time.Duration
	fn func()
	t  *simnet.Timer
}

func (e *lateEnv) Now() time.Duration                  { return e.now }
func (e *lateEnv) Defer(fn func())                     { e.deferred = append(e.deferred, fn) }
func (e *lateEnv) Send(_, _ simnet.Addr, _ any, _ int) {}
func (e *lateEnv) AddNode(simnet.Addr, simnet.Handler) {}
func (e *lateEnv) After(_ simnet.Addr, d time.Duration, fn func()) *simnet.Timer {
	t := &simnet.Timer{}
	e.timers = append(e.timers, lateTimer{e.now + d, fn, t})
	return t
}

// fire runs the earliest live timer at its time, then, lag later, what it
// deferred.
func (e *lateEnv) fire(lag time.Duration) {
	next := -1
	for i, tm := range e.timers {
		if !tm.t.Cancelled() && (next < 0 || tm.at < e.timers[next].at) {
			next = i
		}
	}
	if next < 0 {
		return
	}
	tm := e.timers[next]
	e.timers = append(e.timers[:next], e.timers[next+1:]...)
	e.now = max(e.now, tm.at)
	tm.t.MarkFired()
	tm.fn()
	e.now += lag
	for len(e.deferred) > 0 {
		fn := e.deferred[0]
		e.deferred = e.deferred[1:]
		fn()
	}
}

// TestBallotingEndsAtExternalize: herder_balloting_seconds is first prepare
// to externalize. A lone validator does both inside one event, so with the
// apply running 40 ms later the metric must still read zero — it used to
// read the 40 ms, counting the apply into balloting.
func TestBallotingEndsAtExternalize(t *testing.T) {
	env := &lateEnv{}
	nid := stellarcrypto.HashBytes([]byte("late-env"))
	kp := stellarcrypto.KeyPairFromString("late-validator")
	self := fba.NodeIDFromPublicKey(kp.Public)
	node, err := New(env, Config{
		Keys:           kp,
		QSet:           fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{self}},
		NetworkID:      nid,
		LedgerInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	genesis, _ := GenesisState(nid)
	node.Bootstrap(genesis, 0)
	closes := recordCloses(node)
	node.Start()
	for i := 0; i < 50 && node.LastHeader().LedgerSeq < 6; i++ {
		env.fire(40 * time.Millisecond)
	}
	if node.LastHeader().LedgerSeq < 6 {
		t.Fatalf("closed %d ledgers", node.LastHeader().LedgerSeq)
	}
	balloted := 0
	for _, cs := range *closes {
		if !cs.Balloted {
			continue
		}
		balloted++
		if cs.Balloting != 0 {
			t.Fatalf("ledger %d balloting %v: the time until apply ended was counted", cs.Seq, cs.Balloting)
		}
	}
	if balloted < 5 {
		t.Fatalf("%d balloting samples for %d ledgers", balloted, node.LastHeader().LedgerSeq)
	}
	if got, want := node.ins.balloting.Count(), uint64(balloted); got != want {
		t.Fatalf("herder_balloting_seconds has %d samples, close records %d", got, want)
	}
}
