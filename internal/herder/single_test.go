package herder

import (
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// TestSingleValidatorCloses covers the degenerate FBA configuration of a
// one-node network with a self-quorum: consensus must make progress with
// no peer input at all (this exercises the ballot protocol's self-driven
// advance loop).
func TestSingleValidatorCloses(t *testing.T) {
	net := simnet.New(1)
	nid := stellarcrypto.HashBytes([]byte("single-test"))
	kp := stellarcrypto.KeyPairFromString("single-validator")
	self := fba.NodeIDFromPublicKey(kp.Public)
	node, err := New(net, Config{
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
	net.RunFor(10 * time.Second)
	if node.LastHeader().LedgerSeq < 8 {
		t.Fatalf("single validator closed only %d ledgers in 10s", node.LastHeader().LedgerSeq)
	}
	// Each ledger should close promptly (no timeout-driven crawl).
	var ledgers, timeouts int
	for _, cs := range *closes {
		if cs.InSCP {
			ledgers++
			timeouts += cs.BallotTimeouts
		}
	}
	if ledgers == 0 {
		t.Fatal("no closes recorded")
	}
	if mean := float64(timeouts) / float64(ledgers); mean > 0.2 {
		t.Fatalf("ballot timeouts per ledger = %.2f, expected ≈0", mean)
	}
}
