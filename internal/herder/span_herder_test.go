package herder

import (
	"testing"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// buildTracedCluster builds the standard 3-node cluster with one shared
// tracer on the simulation's virtual clock.
func buildTracedCluster(t *testing.T) (*obs.Tracer, *simnet.Network, []*Node, stellarcrypto.Hash) {
	t.Helper()
	// The tracer needs the network's clock, but buildPair creates the
	// network internally — close over a late-bound pointer. No span is
	// recorded before RunFor, by which time the pointer is set.
	var netRef *simnet.Network
	tracer := obs.NewTracer(func() time.Duration {
		if netRef == nil {
			return 0
		}
		return netRef.Now()
	})
	net, nodes, nid := buildPair(t, func(cfgs []*Config) {
		for _, c := range cfgs {
			c.Obs = &obs.Obs{Tracer: tracer}
		}
	})
	netRef = net
	return tracer, net, nodes, nid
}

func TestSlotAndTxSpansRecorded(t *testing.T) {
	tracer, net, nodes, nid := buildTracedCluster(t)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(time.Second)

	// Submit a funded payment through node 0 so the tx lifecycle records.
	_, masterKP := GenesisState(nid)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	tx := &ledger.Transaction{
		Source: master, Fee: ledger.DefaultBaseFee,
		SeqNum: nodes[0].State().Account(master).SeqNum + 1,
		Operations: []ledger.Operation{{
			Body: &ledger.CreateAccount{
				Destination:     "trace-test-dest",
				StartingBalance: 100 * ledger.One,
			},
		}},
	}
	tx.Sign(nid, masterKP)
	if err := nodes[0].AdmitTx(tx).Err; err != nil {
		t.Fatal(err)
	}
	net.RunFor(15 * time.Second)
	if nodes[0].LastHeader().LedgerSeq < 3 {
		t.Fatalf("cluster stuck at ledger %d", nodes[0].LastHeader().LedgerSeq)
	}

	// Count completed spans by name, and link each to its parent's name.
	exp := tracer.Export("cluster")
	count := map[string]int{}
	var balloting time.Duration
	nameByID := map[uint64]string{}
	for _, sp := range exp.Spans {
		nameByID[sp.ID] = sp.Name
		if sp.Open {
			continue
		}
		count[sp.Name]++
		if sp.Name == obs.SpanBalloting {
			balloting += time.Duration(sp.EndNanos - sp.StartNanos)
		}
	}
	for _, phase := range []string{
		obs.SpanSlot, obs.SpanTrigger, obs.SpanNomination, obs.SpanBalloting,
		obs.SpanPrepare, obs.SpanCommit, obs.SpanApply,
		obs.SpanSigPrepass, obs.SpanTxApply, obs.SpanBucketMerge,
		obs.SpanTx, obs.SpanTxSubmit, obs.SpanTxAdmit, obs.SpanTxPending,
		obs.SpanTxConsensus, obs.SpanTxApplied, obs.SpanRecvEnvelope,
	} {
		if count[phase] == 0 {
			t.Errorf("no completed %q spans recorded", phase)
		}
	}
	// Consensus phases run on virtual time: balloting must take time, and
	// slots closed on all 3 nodes.
	if count[obs.SpanSlot] < 6 {
		t.Fatalf("only %d slot spans across 3 nodes", count[obs.SpanSlot])
	}
	if balloting <= 0 {
		t.Fatal("balloting spans took no time")
	}

	// Every lifecycle child must be parent-linked to the right span kind.
	wantParent := map[string]string{
		obs.SpanTxSubmit:    obs.SpanTx,
		obs.SpanTxAdmit:     obs.SpanTx,
		obs.SpanTxPending:   obs.SpanTx,
		obs.SpanTxConsensus: obs.SpanTx,
		obs.SpanTxApplied:   obs.SpanTx,
		obs.SpanTrigger:     obs.SpanSlot,
		obs.SpanNomination:  obs.SpanSlot,
		obs.SpanBalloting:   obs.SpanSlot,
		obs.SpanApply:       obs.SpanSlot,
		obs.SpanPrepare:     obs.SpanBalloting,
		obs.SpanCommit:      obs.SpanBalloting,
		obs.SpanSigPrepass:  obs.SpanApply,
		obs.SpanTxApply:     obs.SpanApply,
		obs.SpanBucketMerge: obs.SpanApply,
	}
	for _, sp := range exp.Spans {
		want, checked := wantParent[sp.Name]
		if !checked {
			continue
		}
		if got := nameByID[sp.Parent]; got != want {
			t.Errorf("%s span parented to %q, want %q", sp.Name, got, want)
		}
	}
}

func TestTracingOffRecordsNothing(t *testing.T) {
	// The default cluster (no tracer) must run with nil span state.
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
		if n.tr != nil || n.spans != nil || n.txTrace != nil {
			t.Fatal("tracing state allocated without a tracer")
		}
	}
	net.RunFor(5 * time.Second)
	if nodes[0].LastHeader().LedgerSeq < 1 {
		t.Fatal("cluster did not close ledgers")
	}
}

func TestTracedRunStaysDeterministic(t *testing.T) {
	// A traced run must externalize the same headers as an untraced run
	// of the same seed: the tracer only records, never perturbs.
	run := func(traced bool) stellarcrypto.Hash {
		var net *simnet.Network
		var nodes []*Node
		if traced {
			_, net, nodes, _ = buildTracedCluster(t)
		} else {
			net, nodes, _ = buildPair(t, nil)
		}
		for _, n := range nodes {
			n.Start()
		}
		net.RunFor(20 * time.Second)
		if nodes[0].LastHeader().LedgerSeq < 3 {
			t.Fatalf("run stalled at %d", nodes[0].LastHeader().LedgerSeq)
		}
		return nodes[0].LastHeader().Hash()
	}
	if run(false) != run(true) {
		t.Fatal("tracing changed the consensus outcome of a seeded run")
	}
}
