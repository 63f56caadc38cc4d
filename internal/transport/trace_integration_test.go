package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/obs/collect"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// TestThreeNodeTracePropagation is the end-to-end check for cross-process
// tracing: three validators with INDEPENDENT tracers (distinct id bases,
// as three stellar-node processes would have) connected over loopback
// TCP. A transaction submitted to node 0 must produce spans on all three
// nodes that share one trace id — propagated through the overlay wire
// format — and the merged cluster trace must link them across processes.
func TestThreeNodeTracePropagation(t *testing.T) {
	const (
		n           = 3
		interval    = 100 * time.Millisecond
		testTimeout = 90 * time.Second
	)
	networkID := stellarcrypto.HashBytes([]byte("transport-trace-integration"))
	kps := stellarcrypto.DeterministicKeyPairs("trace-validator", n)
	ids := make([]fba.NodeID, n)
	for i, kp := range kps {
		ids[i] = fba.NodeIDFromPublicKey(kp.Public)
	}
	qset := fba.Majority(ids...)

	loops := make([]*Loop, n)
	nodes := make([]*herder.Node, n)
	mgrs := make([]*Manager, n)
	tracers := make([]*obs.Tracer, n)
	for i, kp := range kps {
		loops[i] = NewLoop()
		ob := obs.New()
		tracers[i] = obs.NewTracer(nil)
		tracers[i].SetIDBase(obs.IDBaseFromString(kp.Public.Address()))
		ob.Tracer = tracers[i]
		node, err := herder.New(loops[i], herder.Config{
			Keys:           kp,
			QSet:           qset,
			NetworkID:      networkID,
			LedgerInterval: interval,
			Obs:            ob,
		})
		if err != nil {
			t.Fatalf("herder.New(%d): %v", i, err)
		}
		genesis, _ := herder.GenesisState(networkID)
		node.Bootstrap(genesis, 0)
		nodes[i] = node

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

	deadline := time.Now().Add(testTimeout)
	waitForSeq := func(target uint32) {
		for i, node := range nodes {
			for {
				mu := loops[i].Locker()
				mu.Lock()
				seq := node.LastHeader().LedgerSeq
				mu.Unlock()
				if seq >= target {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d stuck at ledger %d, want %d", i, seq, target)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	waitForSeq(3) // quorum formed and closing before load

	// Submit one funded payment through node 0; the trace context rides
	// the tx flood to nodes 1 and 2 over TCP.
	_, masterKP := herder.GenesisState(networkID)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	var submitErr error
	done := make(chan struct{})
	loops[0].Run(func() {
		defer close(done)
		tx := &ledger.Transaction{
			Source: master, Fee: ledger.DefaultBaseFee,
			SeqNum: nodes[0].State().Account(master).SeqNum + 1,
			Operations: []ledger.Operation{{
				Body: &ledger.CreateAccount{
					Destination:     "trace-integration-dest",
					StartingBalance: 100 * ledger.One,
				},
			}},
		}
		tx.Sign(networkID, masterKP)
		submitErr = nodes[0].AdmitTx(tx).Err
	})
	<-done
	if submitErr != nil {
		t.Fatalf("AdmitTx: %v", submitErr)
	}
	waitForSeq(8) // enough closes for the tx to externalize and apply everywhere

	// Export every node's span store exactly as /debug/trace/export would.
	scrapes := make([]*collect.Scrape, n)
	now := time.Now()
	for i, tr := range tracers {
		exp := tr.Export(fmt.Sprintf("node-%d", i))
		scrapes[i] = &collect.Scrape{
			Target:    collect.Target{Name: exp.Node, URL: fmt.Sprintf("test://node-%d", i)},
			Export:    exp,
			FetchedAt: now,
		}
	}

	// Find the submitted tx's originating root on node 0: a tx span with
	// no remote parent. Its trace id is the cross-process correlation key.
	var trace, rootID uint64
	for i := range scrapes[0].Export.Spans {
		sp := &scrapes[0].Export.Spans[i]
		if sp.Name == obs.SpanTx && sp.RemoteParent == 0 {
			trace, rootID = sp.Trace, sp.ID
			break
		}
	}
	if trace == 0 {
		t.Fatal("node 0 recorded no originating tx root span")
	}

	// Every node must hold spans of that trace; the remote roots must
	// reference node 0's span ids and name node 0 as origin.
	origin := string(nodes[0].ID())
	for i, s := range scrapes {
		inTrace, remoteLinked := 0, 0
		for j := range s.Export.Spans {
			sp := &s.Export.Spans[j]
			if sp.Trace != trace {
				continue
			}
			inTrace++
			if sp.RemoteParent != 0 {
				if sp.RemoteParent != rootID {
					t.Errorf("node %d: span %d remote parent %d, want root %d", i, sp.ID, sp.RemoteParent, rootID)
				}
				if sp.Origin != origin {
					t.Errorf("node %d: span %d origin %q, want %q", i, sp.ID, sp.Origin, origin)
				}
				remoteLinked++
			}
		}
		if inTrace == 0 {
			t.Errorf("node %d: no spans in trace %d — context did not cross the wire", i, trace)
		}
		if i > 0 && remoteLinked == 0 {
			t.Errorf("node %d: spans in trace %d but none remote-parented to node 0", i, trace)
		}
	}

	// The merged cluster trace must be lossless and resolve the
	// cross-process links; the tx's causal tree spans all three nodes.
	var buf bytes.Buffer
	stats, err := collect.Merge(scrapes, &buf)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if !stats.Lossless() {
		t.Errorf("merge lost spans: %d in, %d out", stats.SpansIn, stats.SpansOut)
	}
	if stats.Nodes != n {
		t.Errorf("merge saw %d nodes, want %d", stats.Nodes, n)
	}
	if stats.CrossLinks < 2 {
		t.Errorf("merged trace has %d cross-node links, want ≥ 2 (one per remote node)", stats.CrossLinks)
	}
	latencies, crossNode := collect.TraceLatencies(scrapes)
	if crossNode == 0 {
		t.Error("no causal tree spans multiple nodes")
	}
	if len(latencies) == 0 {
		t.Error("no submit→applied latency samples from the merged trace")
	}
	t.Logf("trace %d: %d cross-node links, %d cross-node trees, %d latency samples",
		trace, stats.CrossLinks, crossNode, len(latencies))
}
