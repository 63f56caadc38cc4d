package herder

import (
	"testing"
	"time"

	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// The checkpoint cadence (DESIGN.md §7): with none configured a node
// checkpoints every DefaultCheckpointInterval ledgers, and every close in
// between archives only what a restart replays — its header and its
// transaction set.

// TestDefaultCadenceRestartReplaysToTip: a node restarted between two
// checkpoints restores the latest one and replays the archived ledgers past
// it to a byte-identical tip header.
func TestDefaultCadenceRestartReplaysToTip(t *testing.T) {
	a, nodes, run, nid := archivedTrio(t, 0)
	for nodes[0].LastHeader().LedgerSeq <= DefaultCheckpointInterval+2 {
		run(10 * time.Second)
	}
	tip := nodes[0].LastHeader()
	cp, err := a.LatestCheckpointSeq()
	if err != nil || cp != DefaultCheckpointInterval {
		t.Fatalf("latest checkpoint %d (%v) at tip %d, want %d", cp, err, tip.LedgerSeq, DefaultCheckpointInterval)
	}
	if _, err := a.GetCheckpoint(cp - 1); err == nil {
		t.Fatalf("a checkpoint at ledger %d, off the cadence", cp-1)
	}

	fresh := freshNode(t, nodes, nid, func(c *Config) { c.Archive = a })
	replayed, err := fresh.RestoreFromArchive(a, genesisOf(nid))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.LastHeader().Hash() != tip.Hash() {
		t.Fatalf("restored to ledger %d, not the tip header of ledger %d", fresh.LastHeader().LedgerSeq, tip.LedgerSeq)
	}
	if want := int(tip.LedgerSeq - cp); replayed != want {
		t.Fatalf("replayed %d ledgers past the checkpoint, want %d", replayed, want)
	}
}

// TestRestartBeforeFirstCheckpointCatchesUp: a node restarted on a data dir
// that holds ledgers but no checkpoint yet replays them from genesis, as
// stellar-node does, then catches up from its peers the ledgers the network
// closed while it was down.
func TestRestartBeforeFirstCheckpointCatchesUp(t *testing.T) {
	a, nodes, run, nid := archivedTrio(t, 0)
	if _, err := a.LatestCheckpointSeq(); err == nil {
		t.Fatal("setup: a checkpoint before the first one due")
	}
	net := nodes[0].net.(*simnet.Network)
	old := nodes[0]
	tip := old.LastHeader()
	net.SetDown(old.Addr())
	run(8 * time.Second) // the other two close ledgers while it is down
	restarted, err := New(net, Config{
		Keys:           old.cfg.Keys,
		QSet:           old.cfg.QSet,
		NetworkID:      nid,
		LedgerInterval: old.cfg.LedgerInterval,
		Archive:        a,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := restarted.RestoreFromArchive(a, genesisOf(nid))
	if err != nil {
		t.Fatal(err)
	}
	if restarted.LastHeader().Hash() != tip.Hash() || replayed != int(tip.LedgerSeq-1) {
		t.Fatalf("restored to ledger %d after %d replays, want the archived tip %d",
			restarted.LastHeader().LedgerSeq, replayed, tip.LedgerSeq)
	}
	nodes[0] = restarted
	net.SetUp(restarted.Addr())
	for _, peer := range nodes[1:] {
		restarted.Overlay().Connect(peer.Addr())
	}
	restarted.Start()
	if nodes[1].LastHeader().LedgerSeq <= tip.LedgerSeq+1 {
		t.Fatalf("setup: the network closed %d → %d while the node was down", tip.LedgerSeq, nodes[1].LastHeader().LedgerSeq)
	}
	for i := 0; i < 10 && restarted.LastHeader().LedgerSeq+1 < nodes[1].LastHeader().LedgerSeq; i++ {
		run(2 * time.Second)
	}
	got, want := restarted.LastHeader().LedgerSeq, nodes[1].LastHeader().LedgerSeq
	if got+1 < want {
		t.Fatalf("restarted node at ledger %d, network at %d", got, want)
	}
	seq := min(got, want)
	h1, ok1 := restarted.HeaderHash(seq)
	h2, ok2 := nodes[1].HeaderHash(seq)
	if !ok1 || !ok2 || h1 != h2 {
		t.Fatalf("restarted node diverged at ledger %d", seq)
	}
	if restarted.ins.catchupReplayed.Value() == 0 {
		t.Fatal("the restarted node replayed nothing from its peers")
	}
}

// TestQuorumRestartBeforeFirstCheckpointResumesAtTip: every validator of a
// quorum restarts on its data dir before the first checkpoint is due, so no
// peer is ahead to catch up from. Each replays its archived ledgers from
// genesis to its own archived tip, the quorum goes on closing that chain,
// and every archive's first checkpoint links to the headers archived below
// it.
func TestQuorumRestartBeforeFirstCheckpointResumesAtTip(t *testing.T) {
	const every = 16
	archives := make([]*history.Archive, 3)
	net, nodes, nid := buildPair(t, func(cfgs []*Config) {
		for i, c := range cfgs {
			a, err := history.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			archives[i], c.Archive, c.CheckpointInterval = a, a, every
		}
	})
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(14 * time.Second)
	if tip := nodes[0].LastHeader().LedgerSeq; tip < 4 || tip >= every {
		t.Fatalf("setup: ledger %d closed, want some ledgers and no checkpoint", tip)
	}

	// The whole quorum goes down at once and comes back on a new network.
	net = simnet.New(8)
	net.SetLatency(simnet.UniformLatency(2*time.Millisecond, 8*time.Millisecond))
	restarted := make([]*Node, len(nodes))
	for i, old := range nodes {
		tip := old.LastHeader()
		n, err := New(net, Config{
			Keys:               old.cfg.Keys,
			QSet:               old.cfg.QSet,
			NetworkID:          nid,
			LedgerInterval:     old.cfg.LedgerInterval,
			Archive:            archives[i],
			CheckpointInterval: every,
		})
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := n.RestoreFromArchive(archives[i], genesisOf(nid))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if n.LastHeader().Hash() != tip.Hash() || replayed != int(tip.LedgerSeq-1) {
			t.Fatalf("node %d restored to ledger %d after %d replays, want its archived tip %d",
				i, n.LastHeader().LedgerSeq, replayed, tip.LedgerSeq)
		}
		restarted[i] = n
	}
	for i, a := range restarted {
		for j, b := range restarted {
			if i != j {
				a.Overlay().Connect(b.Addr())
			}
		}
	}
	for _, n := range restarted {
		n.Start()
		n.RebroadcastLatest()
	}
	for i := 0; i < 30 && restarted[0].LastHeader().LedgerSeq <= every; i++ {
		net.RunFor(2 * time.Second)
		for _, n := range restarted {
			n.RebroadcastLatest()
		}
	}
	for i, a := range archives {
		cp, err := a.LatestCheckpoint()
		if err != nil || cp.LedgerSeq != every {
			t.Fatalf("node %d: latest checkpoint %v (%v), want ledger %d", i, cp, err, every)
		}
		prev, _ := restarted[0].HeaderHash(1)
		for seq := uint32(2); seq <= every; seq++ {
			hdr, err := a.GetHeader(seq)
			if err != nil {
				t.Fatalf("node %d: header %d: %v", i, seq, err)
			}
			if hdr.Prev != prev {
				t.Fatalf("node %d: archived header %d does not link to header %d", i, seq, seq-1)
			}
			if h, ok := restarted[0].HeaderHash(seq); !ok || h != hdr.Hash() {
				t.Fatalf("node %d: archived header %d is not the quorum's", i, seq)
			}
			prev = hdr.Hash()
		}
		if cp.HeaderHash != prev {
			t.Fatalf("node %d: checkpoint names a header the archive does not hold", i)
		}
	}
}

// TestNetworkCatchupWaitsForFirstCheckpoint: a cold node whose peers hold no
// checkpoint yet is refused at discovery, keeps asking, peer after peer, and
// adopts the first checkpoint that appears.
func TestNetworkCatchupWaitsForFirstCheckpoint(t *testing.T) {
	const every = 16
	_, nodes, run, nid := archivedTrio(t, every)
	if tip := nodes[0].LastHeader().LedgerSeq; tip >= every {
		t.Fatalf("setup: ledger %d closed, past the first checkpoint", tip)
	}
	own, err := history.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshNode(t, nodes, nid, func(c *Config) { c.Archive = own })
	done := false
	if err := fresh.StartNetworkCatchup(func(int) { done = true }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30 && !done; i++ {
		run(2 * time.Second)
	}
	if !done {
		t.Fatalf("no catch-up by ledger %d", nodes[0].LastHeader().LedgerSeq)
	}
	if cp, err := own.LatestCheckpointSeq(); err != nil || cp != every {
		t.Fatalf("adopted checkpoint %d (%v), want the first one, %d", cp, err, every)
	}
	seq := fresh.LastHeader().LedgerSeq
	if h, ok := nodes[0].HeaderHash(seq); !ok || h != fresh.LastHeader().Hash() {
		t.Fatalf("caught-up node diverged at ledger %d", seq)
	}
}

// genesisOf is the genesis ledger buildPair's networks boot from.
func genesisOf(nid stellarcrypto.Hash) *ledger.State {
	st, _ := GenesisState(nid)
	return st
}
