package herder

import (
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// archivedTrio builds the usual 3-validator simnet with node 0 archiving
// into a temp dir, runs it long enough for several ledgers, and returns
// everything a restore test needs.
func archivedTrio(t *testing.T, checkpointInterval int) (*history.Archive, []*Node, func(d time.Duration), stellarcrypto.Hash) {
	t.Helper()
	a, err := history.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	net, nodes, nid := buildPair(t, func(cfgs []*Config) {
		cfgs[0].Archive = a
		cfgs[0].CheckpointInterval = checkpointInterval
	})
	for _, n := range nodes {
		n.Start()
	}
	run := func(d time.Duration) {
		net.RunFor(d)
		for _, n := range nodes {
			n.RebroadcastLatest()
		}
	}
	run(24 * time.Second)
	if nodes[0].LastHeader().LedgerSeq < 6 {
		t.Fatalf("setup: only %d ledgers closed", nodes[0].LastHeader().LedgerSeq)
	}
	return a, nodes, run, nid
}

// freshNode creates a node on the same network that has NOT bootstrapped:
// the cold-start position.
func freshNode(t *testing.T, nodes []*Node, nid stellarcrypto.Hash, mutate func(*Config)) *Node {
	t.Helper()
	kp := stellarcrypto.DeterministicKeyPairs("netcatchup-fresh", 1)[0]
	var ids []fba.NodeID
	for _, n := range nodes {
		ids = append(ids, n.ID())
	}
	cfg := Config{
		Keys:           kp,
		QSet:           fba.Majority(ids...),
		NetworkID:      nid,
		LedgerInterval: 2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(nodes[0].net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range nodes {
		n.Overlay().Connect(peer.Addr())
		peer.Overlay().Connect(n.Addr())
	}
	return n
}

// TestRestoreFromArchiveReplaysToTip: a checkpoint interval > 1 leaves
// the latest checkpoint behind the archive tip; RestoreFromArchive must
// land on the checkpoint and replay the remaining archived ledgers to a
// byte-identical tip header.
func TestRestoreFromArchiveReplaysToTip(t *testing.T) {
	a, nodes, _, nid := archivedTrio(t, 5)
	tip := nodes[0].LastHeader()

	fresh := freshNode(t, nodes, nid, func(c *Config) { c.Archive = a })
	replayed, err := fresh.RestoreFromArchive(a)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.LastHeader().LedgerSeq != tip.LedgerSeq {
		t.Fatalf("restored to %d, tip is %d", fresh.LastHeader().LedgerSeq, tip.LedgerSeq)
	}
	if fresh.LastHeader().Hash() != tip.Hash() {
		t.Fatal("restored tip header differs from the live node's")
	}
	cp, err := a.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if want := int(tip.LedgerSeq - cp.LedgerSeq); replayed != want {
		t.Fatalf("replayed %d ledgers, want %d", replayed, want)
	}
	if replayed == 0 {
		t.Fatal("test built no replay gap; lower the run time or raise the interval")
	}
}

// TestRestoreFromArchiveDiskBacked: the same restore at a shorter
// checkpoint interval, the restored list moving below level 0 into the
// archive's disk store as it is adopted, must produce the identical header.
func TestRestoreFromArchiveDiskBacked(t *testing.T) {
	a, nodes, _, nid := archivedTrio(t, 2)
	tip := nodes[0].LastHeader()
	fresh := freshNode(t, nodes, nid, func(c *Config) {
		c.Archive = a
	})
	if _, err := fresh.RestoreFromArchive(a); err != nil {
		t.Fatal(err)
	}
	if fresh.LastHeader().Hash() != tip.Hash() {
		t.Fatal("disk-backed restore diverged from in-memory tip")
	}
}

// TestReplayRejectsTamperedTxSet: replay must refuse an archived tx set
// that does not match the archived header.
func TestReplayRejectsTamperedTxSet(t *testing.T) {
	a, nodes, _, nid := archivedTrio(t, 5)
	fresh := freshNode(t, nodes, nid, func(c *Config) { c.Archive = a })
	if err := fresh.CatchUp(a); err != nil {
		t.Fatal(err)
	}
	seq := fresh.LastHeader().LedgerSeq + 1
	hdr, err := a.GetHeader(seq)
	if err != nil {
		t.Skip("no ledger past the checkpoint to tamper with")
	}
	// An extra transaction changes the set's hash away from the header's.
	forged := &ledger.TxSet{
		PrevLedgerHash: fresh.LastHeader().Hash(),
		Txs: []*ledger.Transaction{{
			Source: "GFORGED", Fee: 100, SeqNum: 1,
			Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: "GNOBODY", Amount: 1}}},
		}},
	}
	if err := fresh.ReplayLedger(hdr, forged); err == nil {
		t.Fatal("replay accepted a tx set that does not match the header")
	}
	// A set chaining from the wrong predecessor is refused too.
	badChain := &ledger.TxSet{PrevLedgerHash: stellarcrypto.HashBytes([]byte("wrong"))}
	if err := fresh.ReplayLedger(hdr, badChain); err == nil {
		t.Fatal("replay accepted a tx set chaining from the wrong ledger")
	}
}

// TestNetworkCatchupColdStart is the tentpole's end-to-end: a node with an
// empty data dir discovers a peer's checkpoint, fetches the archive over
// the (simulated) wire in chunks, restores, replays, and rejoins the
// still-running network at the same header hashes.
func TestNetworkCatchupColdStart(t *testing.T) {
	_, nodes, run, nid := archivedTrio(t, 2)

	own, err := history.Open(t.TempDir()) // empty data dir
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshNode(t, nodes, nid, func(c *Config) {
		c.Archive = own
	})
	done := false
	if err := fresh.StartNetworkCatchup(func(replayed int) { done = true }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !done; i++ {
		run(2 * time.Second)
	}
	if !done {
		t.Fatal("network catchup did not complete")
	}
	// Let the live window fill the gap and a few more ledgers close.
	for i := 0; i < 8; i++ {
		run(2 * time.Second)
	}
	want := nodes[0].LastHeader().LedgerSeq
	got := fresh.LastHeader().LedgerSeq
	if got+1 < want {
		t.Fatalf("caught-up node at %d, network at %d", got, want)
	}
	cmp := got
	if want < cmp {
		cmp = want
	}
	h1, ok1 := fresh.HeaderHash(cmp)
	h2, ok2 := nodes[0].HeaderHash(cmp)
	if !ok1 || !ok2 || h1 != h2 {
		t.Fatalf("caught-up node diverged at ledger %d", cmp)
	}
	// The fetched archive must itself be restorable (it is a real archive,
	// not just a transient download).
	if _, err := own.LatestCheckpoint(); err != nil {
		t.Fatalf("fetched archive has no checkpoint: %v", err)
	}
}
