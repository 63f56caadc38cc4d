package herder

import (
	"sync/atomic"
	"testing"

	"stellar/internal/bucket"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// Where a validator's bucket list lives: a node with an archive keeps level
// 0 in RAM and every deeper level as a file of the archive's bucket store; a
// node without one keeps it all in RAM. Both vote on the same list hash.

// countingStore counts what a list asks of its store. Merges run on the
// verify pool, hence the atomics.
type countingStore struct {
	bucket.Store
	loads, writes atomic.Int64
}

func (s *countingStore) Load(h stellarcrypto.Hash) (*bucket.Bucket, error) {
	s.loads.Add(1)
	return s.Store.Load(h)
}

func (s *countingStore) Writer() bucket.BucketWriter {
	s.writes.Add(1)
	return s.Store.Writer()
}

// TestDurableNodeNeverDecodesSpilledBuckets: a durable node closing 150
// ledgers of payments, with a checkpoint at every one, merges its list below
// level 0 into the archive's store and never decodes one of those buckets
// back — not to merge, not to archive — and its latest checkpoint restores
// to the snapshot hash its header names.
func TestDurableNodeNeverDecodesSpilledBuckets(t *testing.T) {
	net, nodes, nid, payers := buildFunded(t, 10, durable(t))
	n := nodes[0]
	counted := &countingStore{Store: n.buckets.Store()}
	if counted.Store == nil {
		t.Fatal("a node with an archive has no bucket store attached")
	}
	if err := n.buckets.SetStore(counted); err != nil {
		t.Fatal(err)
	}
	for _, x := range nodes {
		x.Start()
	}
	closeLedgers(t, net, n, 150, func() {
		for i, p := range payers {
			if err := nodes[i%len(nodes)].AdmitTx(p.payment(nid, payers[(i+1)%len(payers)].id)).Err; err != nil {
				t.Fatal(err)
			}
		}
	})
	if counted.writes.Load() == 0 {
		t.Fatal("setup: no merge wrote into the store")
	}
	if got := counted.loads.Load(); got != 0 {
		t.Fatalf("%d spilled buckets decoded while closing %d ledgers", got, n.LastHeader().LedgerSeq)
	}

	a := n.cfg.Archive
	cp, err := a.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	deep := 0
	for _, h := range cp.BucketHashes[2:] {
		if h != bucket.EmptyBucket().Hash() {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("setup: the checkpoint names no bucket below level 0")
	}
	restored, err := a.RestoreBucketList(cp)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := a.GetHeader(cp.LedgerSeq)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Hash() != hdr.SnapshotHash {
		t.Fatalf("checkpoint %d restores to list hash %s, header says %s", cp.LedgerSeq, restored.Hash().Hex(), hdr.SnapshotHash.Hex())
	}
}

// inMemoryPeer adds a validator without an archive to a built network: the
// same genesis, the others' quorum set, connected to all of them.
func inMemoryPeer(t *testing.T, nodes []*Node) *Node {
	t.Helper()
	ref := nodes[0]
	n, err := New(ref.net, Config{
		Keys:           stellarcrypto.DeterministicKeyPairs("herder-test-in-memory", 1)[0],
		QSet:           ref.cfg.QSet,
		NetworkID:      ref.cfg.NetworkID,
		LedgerInterval: ref.cfg.LedgerInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	genesis, err := ledger.RestoreState(ref.buckets.AllLive(), ref.LastHeader())
	if err != nil {
		t.Fatal(err)
	}
	n.Bootstrap(genesis, 0)
	if n.LastHeader().Hash() != ref.LastHeader().Hash() {
		t.Fatal("setup: the in-memory peer's genesis differs")
	}
	for _, peer := range nodes {
		n.Overlay().Connect(peer.Addr())
		peer.Overlay().Connect(n.Addr())
	}
	return n
}
