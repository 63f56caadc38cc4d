package herder

import (
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

func TestStellarValueRoundTrip(t *testing.T) {
	v := &StellarValue{
		TxSetHash: stellarcrypto.HashBytes([]byte("ts")),
		CloseTime: 12345,
		Upgrades: []Upgrade{
			{Kind: UpgradeBaseFee, Value: 200},
			{Kind: UpgradeProtocolVersion, Value: 2},
		},
	}
	raw := v.Encode()
	back, err := DecodeValue(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.TxSetHash != v.TxSetHash || back.CloseTime != v.CloseTime || len(back.Upgrades) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	// Canonical: upgrade order does not matter.
	v2 := &StellarValue{TxSetHash: v.TxSetHash, CloseTime: v.CloseTime,
		Upgrades: []Upgrade{v.Upgrades[1], v.Upgrades[0]}}
	if string(v2.Encode()) != string(raw) {
		t.Fatal("encoding not canonical across upgrade order")
	}
}

func TestDecodeValueRejectsGarbage(t *testing.T) {
	if _, err := DecodeValue(scp.Value("short")); err == nil {
		t.Fatal("garbage decoded")
	}
	v := (&StellarValue{CloseTime: 5}).Encode()
	if _, err := DecodeValue(append(v, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCombineValuesRules(t *testing.T) {
	h1 := stellarcrypto.HashBytes([]byte("set1"))
	h2 := stellarcrypto.HashBytes([]byte("set2"))
	h3 := stellarcrypto.HashBytes([]byte("unknown"))
	ops := map[stellarcrypto.Hash][2]int64{
		h1: {10, 1000}, // 10 ops
		h2: {20, 500},  // 20 ops — most operations wins (§5.3)
	}
	lookup := func(h stellarcrypto.Hash) (int, int64, bool) {
		v, ok := ops[h]
		return int(v[0]), v[1], ok
	}
	out := CombineValues([]*StellarValue{
		{TxSetHash: h1, CloseTime: 100, Upgrades: []Upgrade{{Kind: UpgradeBaseFee, Value: 150}}},
		{TxSetHash: h2, CloseTime: 90, Upgrades: []Upgrade{{Kind: UpgradeBaseFee, Value: 200}}},
		{TxSetHash: h3, CloseTime: 120}, // unknown set cannot win
	}, lookup)
	if out.TxSetHash != h2 {
		t.Fatalf("combine picked %v, want most-ops set", out.TxSetHash)
	}
	if out.CloseTime != 120 {
		t.Fatalf("combine close time %d, want highest (120)", out.CloseTime)
	}
	if len(out.Upgrades) != 1 || out.Upgrades[0].Value != 200 {
		t.Fatalf("combine upgrades %+v, want highest per kind", out.Upgrades)
	}
}

func TestCombineValuesTieBreaks(t *testing.T) {
	h1 := stellarcrypto.HashBytes([]byte("a"))
	h2 := stellarcrypto.HashBytes([]byte("b"))
	// Equal ops; h1 has higher fees.
	lookup := func(h stellarcrypto.Hash) (int, int64, bool) {
		if h == h1 {
			return 5, 100, true
		}
		return 5, 50, true
	}
	out := CombineValues([]*StellarValue{{TxSetHash: h1}, {TxSetHash: h2}}, lookup)
	if out.TxSetHash != h1 {
		t.Fatal("fee tie-break wrong")
	}
	// Equal ops and fees: highest hash wins.
	lookup2 := func(h stellarcrypto.Hash) (int, int64, bool) { return 5, 50, true }
	out = CombineValues([]*StellarValue{{TxSetHash: h1}, {TxSetHash: h2}}, lookup2)
	want := h1
	if want.Less(h2) {
		want = h2
	}
	if out.TxSetHash != want {
		t.Fatal("hash tie-break wrong")
	}
}

func TestClassifyUpgrade(t *testing.T) {
	desired := []Upgrade{{Kind: UpgradeBaseFee, Value: 200}}
	if ClassifyUpgrade(Upgrade{Kind: UpgradeBaseFee, Value: 200}, desired) != UpgradeDesired {
		t.Fatal("desired upgrade not recognized")
	}
	if ClassifyUpgrade(Upgrade{Kind: UpgradeBaseFee, Value: 300}, desired) != UpgradeValid {
		t.Fatal("valid upgrade misclassified")
	}
	if ClassifyUpgrade(Upgrade{Kind: UpgradeBaseFee, Value: 0}, desired) != UpgradeInvalid {
		t.Fatal("invalid upgrade accepted")
	}
	if ClassifyUpgrade(Upgrade{Kind: UpgradeKind(99), Value: 1}, nil) != UpgradeInvalid {
		t.Fatal("unknown kind accepted")
	}
}

// buildPair creates a three-validator network for integration tests.
func buildPair(t *testing.T, mutate func(cfgs []*Config)) (*simnet.Network, []*Node, stellarcrypto.Hash) {
	t.Helper()
	net, nodes, nid, _ := buildFunded(t, 0, mutate)
	return net, nodes, nid
}

// payer is a funded genesis account a test submits transactions from.
type payer struct {
	id  ledger.AccountID
	kp  stellarcrypto.KeyPair
	seq uint64 // sequence number of its last submitted transaction
}

// buildFunded is buildPair with `funded` keyed accounts of 10 000 XLM each
// in the genesis ledger, for tests that need load.
func buildFunded(t *testing.T, funded int, mutate func(cfgs []*Config)) (*simnet.Network, []*Node, stellarcrypto.Hash, []*payer) {
	t.Helper()
	net := simnet.New(7)
	nodes, nid, payers := buildFundedOn(t, net, net, funded, mutate)
	return net, nodes, nid, payers
}

// buildFundedOn is buildFunded on the caller's network; the nodes attach to
// env, which is net itself or a wrapper around it.
func buildFundedOn(t *testing.T, net *simnet.Network, env simnet.Env, funded int, mutate func(cfgs []*Config)) ([]*Node, stellarcrypto.Hash, []*payer) {
	t.Helper()
	net.SetLatency(simnet.UniformLatency(2*time.Millisecond, 8*time.Millisecond))
	nid := stellarcrypto.HashBytes([]byte("herder-test-net"))
	kps := stellarcrypto.DeterministicKeyPairs("herder-test", 3)
	ids := make([]fba.NodeID, 3)
	for i, kp := range kps {
		ids[i] = fba.NodeIDFromPublicKey(kp.Public)
	}
	cfgs := make([]*Config, 3)
	for i := range cfgs {
		cfgs[i] = &Config{
			Keys:           kps[i],
			QSet:           fba.Majority(ids...),
			NetworkID:      nid,
			LedgerInterval: 2 * time.Second,
		}
	}
	if mutate != nil {
		mutate(cfgs)
	}
	genesis, masterKP := GenesisState(nid)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	payers := make([]*payer, funded)
	for i, kp := range stellarcrypto.DeterministicKeyPairs("herder-test-payer", funded) {
		payers[i] = &payer{id: ledger.AccountIDFromPublicKey(kp.Public), kp: kp}
		op := &ledger.CreateAccount{Destination: payers[i].id, StartingBalance: 10_000 * ledger.One}
		if err := op.Apply(genesis, &ledger.ApplyEnv{LedgerSeq: 1}, master); err != nil {
			t.Fatal(err)
		}
		payers[i].seq = genesis.Account(payers[i].id).SeqNum
	}
	snap := genesis.SnapshotAll()
	ghdr := ledger.GenesisHeader(genesis, 0)
	var nodes []*Node
	for i := range cfgs {
		n, err := New(env, *cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		st, err := ledger.RestoreState(snap, ghdr)
		if err != nil {
			t.Fatal(err)
		}
		n.Bootstrap(st, 0)
		nodes = append(nodes, n)
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				a.Overlay().Connect(b.Addr())
			}
		}
	}
	return nodes, nid, payers
}

func TestEmptyLedgersClose(t *testing.T) {
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(20 * time.Second)
	for i, n := range nodes {
		if n.LastHeader().LedgerSeq < 5 {
			t.Fatalf("node %d at ledger %d", i, n.LastHeader().LedgerSeq)
		}
	}
}

func TestSubmittedPaymentApplies(t *testing.T) {
	net, nodes, nid := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	// Fund an account from the genesis master.
	_, masterKP := GenesisState(nid)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	aliceKP := stellarcrypto.KeyPairFromString("herder-alice")
	alice := ledger.AccountIDFromPublicKey(aliceKP.Public)

	seq := nodes[0].State().Account(master).SeqNum
	tx := &ledger.Transaction{
		Source: master, Fee: ledger.DefaultBaseFee, SeqNum: seq + 1,
		Operations: []ledger.Operation{{
			Body: &ledger.CreateAccount{Destination: alice, StartingBalance: 100 * ledger.One},
		}},
	}
	tx.Sign(nid, masterKP)
	if err := nodes[0].AdmitTx(tx).Err; err != nil {
		t.Fatal(err)
	}
	net.RunFor(15 * time.Second)
	for i, n := range nodes {
		if !n.State().HasAccount(alice) {
			t.Fatalf("node %d did not apply the create-account tx", i)
		}
	}
}

func TestUpgradeGovernance(t *testing.T) {
	// One governing validator desires a base-fee upgrade; the others are
	// non-governing and echo it (§5.3).
	up := Upgrade{Kind: UpgradeBaseFee, Value: 250}
	net, nodes, _ := buildPair(t, func(cfgs []*Config) {
		cfgs[0].Governing = true
		cfgs[0].DesiredUpgrades = []Upgrade{up}
	})
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(30 * time.Second)
	for i, n := range nodes {
		if n.State().BaseFee != 250 {
			t.Fatalf("node %d base fee = %d, upgrade not applied", i, n.State().BaseFee)
		}
		if fee := n.LastHeader().BaseFee; fee != 250 {
			t.Fatalf("node %d header base fee = %d, upgrade not chained", i, fee)
		}
	}
}

// TestOversizedProposalIsInvalid: nomination's validity predicate bounds a
// proposal by the ledger's operation cap. A set that builds on the tip, at
// a valid close time, is fully valid with the cap's operations and invalid
// with one more — whatever a proposer's own SurgePrice would have done.
func TestOversizedProposalIsInvalid(t *testing.T) {
	_, nodes, nid, payers := buildFunded(t, 1, nil)
	n, p := nodes[0], payers[0]
	n.state.MaxTxSetSize = 3
	proposal := func(ops int) scp.Value {
		tx := &ledger.Transaction{Source: p.id, Fee: 100 * ledger.Amount(ops), SeqNum: p.seq + 1}
		for i := 0; i < ops; i++ {
			tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.Payment{Destination: p.id, Asset: ledger.NativeAsset(), Amount: 1}})
		}
		tx.Sign(nid, p.kp)
		ts := &ledger.TxSet{PrevLedgerHash: n.LastHeader().Hash(), Txs: []*ledger.Transaction{tx}}
		n.txsets[ts.Hash(nid)] = ts
		return (&StellarValue{TxSetHash: ts.Hash(nid), CloseTime: n.LastHeader().CloseTime + 1}).Encode()
	}
	slot := uint64(n.LastHeader().LedgerSeq) + 1
	for ops, want := range map[int]scp.ValidationLevel{3: scp.ValueFullyValid, 4: scp.ValueInvalid} {
		if got := (*driver)(n).ValidateValue(slot, proposal(ops)); got != want {
			t.Fatalf("a set of %d operations under a cap of 3 is %v, want %v", ops, got, want)
		}
	}
}

// TestValidateValueCloseTime: a close time is fully valid up to the later
// of the clock's tolerance and the one-second step past the last close, the
// step proposedCloseTime takes on a chain ahead of the clock (as a
// sub-second cadence makes it); further ahead it is only maybe-valid, and
// at or before the last close it is invalid.
func TestValidateValueCloseTime(t *testing.T) {
	net, nodes, nid := buildPair(t, nil)
	net.RunFor(100 * time.Second)
	n := nodes[0]
	now := int64(net.Now() / time.Second)
	slot := uint64(n.LastHeader().LedgerSeq) + 1
	for _, tc := range []struct {
		name              string
		lastClose, closed int64
		want              scp.ValidationLevel
	}{
		{"at the clock's tolerance", now, now + closeTimeTolerance, scp.ValueFullyValid},
		{"60 s ahead of the clock", now, now + 60, scp.ValueMaybeValid},
		{"last+1 on a chain 60 s ahead", now + 60, now + 61, scp.ValueFullyValid},
		{"last+2 on a chain 60 s ahead", now + 60, now + 62, scp.ValueMaybeValid},
		{"at the last close", now + 60, now + 60, scp.ValueInvalid},
		{"before the last close", now, now - 1, scp.ValueInvalid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tip := *n.last
			tip.CloseTime = tc.lastClose
			n.last = &tip
			ts := &ledger.TxSet{PrevLedgerHash: tip.Hash()}
			n.txsets[ts.Hash(nid)] = ts
			v := (&StellarValue{TxSetHash: ts.Hash(nid), CloseTime: tc.closed}).Encode()
			if got := (*driver)(n).ValidateValue(slot, v); got != tc.want {
				t.Fatalf("close time %+d s on a tip at %+d s is %v, want %v",
					tc.closed-now, tc.lastClose-now, got, tc.want)
			}
		})
	}
}

// TestVotedMaxTxSetSizeReachesProposers: a §5.3 vote that lowers the
// per-ledger operation cap changes what every proposer puts in a set, not
// only the header. With three times the new cap pooled, each later ledger
// carries at most the cap, and the pool drains over exactly three of them.
func TestVotedMaxTxSetSizeReachesProposers(t *testing.T) {
	const maxOps = 5
	net, nodes, nid, payers := buildFunded(t, 3*maxOps, func(cfgs []*Config) {
		cfgs[0].Governing = true
		cfgs[0].DesiredUpgrades = []Upgrade{{Kind: UpgradeMaxTxSetSize, Value: maxOps}}
	})
	closes := make([]*[]CloseStats, len(nodes))
	for i, n := range nodes {
		closes[i] = recordCloses(n)
		n.Start()
	}
	upgraded := func() bool {
		for _, n := range nodes {
			if n.LastHeader().MaxTxSetSize != maxOps {
				return false
			}
		}
		return true
	}
	for deadline := net.Now() + 60*time.Second; !upgraded(); net.RunFor(100 * time.Millisecond) {
		if net.Now() > deadline {
			t.Fatal("the cap upgrade never reached every header")
		}
	}
	upgradeSeq := make([]uint32, len(nodes))
	for i, n := range nodes {
		upgradeSeq[i] = n.LastHeader().LedgerSeq
	}
	for i, p := range payers {
		if err := nodes[0].AdmitTx(p.payment(nid, payers[(i+1)%len(payers)].id)).Err; err != nil {
			t.Fatal(err)
		}
	}
	net.RunFor(20 * time.Second)
	for i, n := range nodes {
		applied, full := 0, 0
		for _, cs := range *closes[i] {
			if cs.Seq <= upgradeSeq[i] {
				continue
			}
			if cs.Txs > maxOps {
				t.Fatalf("node %d ledger %d carries %d operations past a voted cap of %d", i, cs.Seq, cs.Txs, maxOps)
			}
			applied += cs.Txs
			if cs.Txs == maxOps {
				full++
			}
		}
		if applied != len(payers) || full != 3 {
			t.Fatalf("node %d applied %d of %d payments in %d full ledgers, want all in 3", i, applied, len(payers), full)
		}
		if got := n.FeeStats().MaxTxSetSize; got != maxOps {
			t.Fatalf("node %d FeeStats().MaxTxSetSize = %d, want %d", i, got, maxOps)
		}
	}
}

func TestCatchUpFromArchive(t *testing.T) {
	dir := t.TempDir()
	arch, err := history.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes, nid := buildPair(t, func(cfgs []*Config) {
		cfgs[0].Archive = arch
		cfgs[0].CheckpointInterval = 1 // the late node joins at the live tip
	})
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(20 * time.Second)
	if nodes[0].LastHeader().LedgerSeq < 5 {
		t.Fatal("setup: too few ledgers")
	}

	// A brand-new validator joins via the archive.
	kp := stellarcrypto.KeyPairFromString("late-validator")
	late, err := New(net, Config{
		Keys:           kp,
		QSet:           fba.Majority(nodes[0].ID(), nodes[1].ID(), nodes[2].ID()),
		NetworkID:      nid,
		LedgerInterval: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.CatchUp(arch); err != nil {
		t.Fatal(err)
	}
	got := late.LastHeader().LedgerSeq
	want := nodes[0].LastHeader().LedgerSeq
	if got+1 < want { // may be one behind the live tip
		t.Fatalf("late node at %d, network at %d", got, want)
	}
	// Ledger state matches the archiving node at the checkpoint ledger.
	h1, ok1 := late.HeaderHash(got)
	h2, ok2 := nodes[0].HeaderHash(got)
	if !ok1 || !ok2 || h1 != h2 {
		t.Fatal("caught-up header hash differs")
	}

	// The restored state is wired like a bootstrapped one: replaying the
	// next archived ledgers, one of which carries a transaction the late
	// node never saw flooded, must look its signature up in the node's
	// shared verification cache.
	_, masterKP := GenesisState(nid)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	tx := &ledger.Transaction{
		Source: master, Fee: ledger.DefaultBaseFee, SeqNum: nodes[0].State().Account(master).SeqNum + 1,
		Operations: []ledger.Operation{{
			Body: &ledger.CreateAccount{Destination: "GLATECOMER", StartingBalance: 100 * ledger.One},
		}},
	}
	tx.Sign(nid, masterKP)
	if err := nodes[0].AdmitTx(tx).Err; err != nil {
		t.Fatal(err)
	}
	net.RunFor(6 * time.Second)
	before := late.Verifier().Cache.Stats()
	for seq := got + 1; seq <= nodes[0].LastHeader().LedgerSeq; seq++ {
		hdr, err := arch.GetHeader(seq)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := arch.GetTxSet(seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := late.ReplayLedger(hdr, ts); err != nil {
			t.Fatal(err)
		}
	}
	if !late.State().HasAccount("GLATECOMER") {
		t.Fatal("replayed ledgers did not carry the submitted transaction")
	}
	if after := late.Verifier().Cache.Stats(); after.Hits+after.Misses == before.Hits+before.Misses {
		t.Fatalf("restored node applied a signed transaction without a cache lookup: %+v", after)
	}
}

func TestMessagesPerLedgerShape(t *testing.T) {
	// §7.2: ~7 logical messages per ledger in the normal case. Our
	// implementation keeps nomination and ballot statements separate, so
	// allow a little headroom, but it must stay O(1), not O(n).
	net, nodes, _ := buildPair(t, nil)
	closes := recordCloses(nodes[0])
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(60 * time.Second)
	var ledgers, emitted int
	for _, cs := range *closes {
		if cs.InSCP {
			ledgers++
			emitted += cs.Emitted
		}
	}
	if ledgers == 0 {
		t.Fatal("no message counts recorded")
	}
	mean := float64(emitted) / float64(ledgers)
	if mean < 3 || mean > 15 {
		t.Fatalf("messages per ledger = %.1f, expected a small constant (~7)", mean)
	}
}

// recordCloses keeps n's close records, as a caller of OnLedgerClose would.
func recordCloses(n *Node) *[]CloseStats {
	var closes []CloseStats
	n.OnLedgerClose = func(_ *ledger.Header, _ []ledger.TxResult, cs CloseStats) {
		closes = append(closes, cs)
	}
	return &closes
}
