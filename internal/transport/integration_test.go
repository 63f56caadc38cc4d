package transport

import (
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/obs"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// TestThreeNodeTCPQuorum is the end-to-end check for the real transport:
// three in-process validators — each with its own event loop, peer
// manager, and loopback TCP connections, exactly the architecture of
// three stellar-node processes — must form a quorum and externalize at
// least 20 ledgers with byte-identical header hashes.
func TestThreeNodeTCPQuorum(t *testing.T) {
	const (
		n           = 3
		targetSeq   = 21 // genesis is seq 1; twenty closes on top of it
		interval    = 100 * time.Millisecond
		testTimeout = 90 * time.Second
	)
	networkID := stellarcrypto.HashBytes([]byte("transport-integration"))
	kps := stellarcrypto.DeterministicKeyPairs("tcp-validator", n)
	ids := make([]fba.NodeID, n)
	for i, kp := range kps {
		ids[i] = fba.NodeIDFromPublicKey(kp.Public)
	}
	qset := fba.Majority(ids...)

	loops := make([]*Loop, n)
	nodes := make([]*herder.Node, n)
	mgrs := make([]*Manager, n)
	for i, kp := range kps {
		loops[i] = NewLoop()
		node, err := herder.New(loops[i], herder.Config{
			Keys:           kp,
			QSet:           qset,
			NetworkID:      networkID,
			LedgerInterval: interval,
			Obs:            obs.New(),
		})
		if err != nil {
			t.Fatalf("herder.New(%d): %v", i, err)
		}
		genesis, _ := herder.GenesisState(networkID)
		node.Bootstrap(genesis, 0)
		nodes[i] = node

		// Mesh incrementally: node i dials every already-listening node,
		// and later nodes dial it; the managers authenticate both ways.
		peers := make([]string, i)
		for j := 0; j < i; j++ {
			peers[j] = mgrs[j].Addr()
		}
		mgr, err := NewManager(loops[i], Config{
			ListenAddr:  "127.0.0.1:0",
			Peers:       peers,
			Keys:        kp,
			NetworkID:   networkID,
			backoffBase: 20 * time.Millisecond,
			backoffMax:  time.Second,
			Obs:         node.Obs(),
			OnPeerUp: func(p simnet.Addr) {
				node.Overlay().AddPeer(p)
				node.RebroadcastLatest()
			},
			OnPeerDown: func(p simnet.Addr) {
				node.Overlay().RemovePeer(p)
			},
		})
		if err != nil {
			t.Fatalf("NewManager(%d): %v", i, err)
		}
		mgrs[i] = mgr
		t.Cleanup(mgr.Close)
		t.Cleanup(loops[i].Close)
	}
	for i := range nodes {
		i := i
		loops[i].Run(nodes[i].Start)
	}

	// Wait for every node to close the target ledger.
	deadline := time.Now().Add(testTimeout)
	for i, node := range nodes {
		for {
			mu := loops[i].Locker()
			mu.Lock()
			seq := node.LastHeader().LedgerSeq
			mu.Unlock()
			if seq >= targetSeq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d stuck at ledger %d, want %d (peers=%d)",
					i, seq, targetSeq, mgrs[i].NumPeers())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Every closed ledger must hash identically on every validator.
	for seq := uint32(1); seq <= targetSeq; seq++ {
		var want stellarcrypto.Hash
		for i, node := range nodes {
			mu := loops[i].Locker()
			mu.Lock()
			h, ok := node.HeaderHash(seq)
			mu.Unlock()
			if !ok {
				t.Fatalf("node %d has no header for seq %d", i, seq)
			}
			if i == 0 {
				want = h
			} else if h != want {
				t.Fatalf("DIVERGENCE at seq %d: node 0 %s, node %d %s",
					seq, want.Hex(), i, h.Hex())
			}
		}
	}

	// The transport counters must reflect real traffic, attributed to the
	// authenticated remote identities.
	for i, mgr := range mgrs {
		var framesIn float64
		for j, kp := range kps {
			if j == i {
				continue
			}
			framesIn += mgr.ins.framesIn.With(kp.Public.Address()).Value()
		}
		if framesIn == 0 {
			t.Errorf("node %d: transport_frames_in_total = 0 after %d ledgers", i, targetSeq)
		}
		if got := mgr.ins.peers.Value(); got != n-1 {
			t.Errorf("node %d: transport_peers = %v, want %d", i, got, n-1)
		}
	}
	t.Logf("3-node TCP quorum externalized %d identical ledgers", targetSeq-1)
}
