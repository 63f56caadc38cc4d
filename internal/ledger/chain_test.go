package ledger

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// chainTx is an unsigned transaction for the sequence rule, which reads no
// signatures: nops BumpSequence operations offering fee in total.
func chainTx(src AccountID, seq uint64, fee Amount, nops int) *Transaction {
	ops := make([]Operation, nops)
	for i := range ops {
		ops[i] = Operation{Body: &BumpSequence{}}
	}
	return &Transaction{Source: src, Fee: fee, SeqNum: seq, Operations: ops}
}

func TestValidChain(t *testing.T) {
	c := newTestChain(t)
	alice := c.fund("chain-alice", 2*One)
	at := c.st.Account(alice).SeqNum
	bal := c.st.Account(alice).Balance
	tx := func(seq uint64) *Transaction { return chainTx(alice, seq, DefaultBaseFee, 1) }
	late := tx(at + 2)
	late.TimeBounds = &TimeBounds{MaxTime: 99}
	rich := tx(at + 2)
	rich.Fee = bal - DefaultBaseFee + 1 // one stroop more than the chain can pay
	cheap := tx(at + 2)
	cheap.Fee = DefaultBaseFee - 1
	for _, tc := range []struct {
		name  string
		chain []*Transaction
		want  int
		seq   bool // the next one fails on its sequence number
		used  bool
	}{
		{"empty", nil, 0, false, false},
		{"contiguous", []*Transaction{tx(at + 1), tx(at + 2), tx(at + 3)}, 3, false, false},
		{"gap at the head", []*Transaction{tx(at + 2), tx(at + 3)}, 0, true, false},
		{"gap inside", []*Transaction{tx(at + 1), tx(at + 3)}, 1, true, false},
		{"used", []*Transaction{tx(at)}, 0, true, true},
		{"two at one sequence", []*Transaction{tx(at + 1), tx(at + 1)}, 1, true, false},
		{"time bounds ended", []*Transaction{tx(at + 1), late, tx(at + 3)}, 1, false, false},
		{"summed fees exceed the balance", []*Transaction{tx(at + 1), rich}, 1, false, false},
		{"fee below the minimum", []*Transaction{tx(at + 1), cheap}, 1, false, false},
	} {
		got, err := c.st.ValidChain(tc.chain, 100)
		var bad *SeqError
		if got != tc.want || (got < len(tc.chain)) != (err != nil) || errors.As(err, &bad) != tc.seq || tc.seq && bad.Used != tc.used {
			t.Errorf("%s: ValidChain = %d, %v; want %d, sequence error %v (used %v)", tc.name, got, err, tc.want, tc.seq, tc.used)
		}
	}
	if _, err := c.st.ValidChain([]*Transaction{chainTx("nobody", 1, DefaultBaseFee, 1)}, 100); err == nil {
		t.Error("a chain of an unknown source is valid")
	}
	// Apply's one-step case keeps its consensus-visible text.
	if err := c.st.CheckSeqAndFee(tx(at+2), 100); err == nil || err.Error() != fmt.Sprintf("ledger: bad sequence number %d, account at %d", at+2, at) {
		t.Errorf("CheckSeqAndFee of a gapped transaction: %v", err)
	}
}

// TestSurgePriceKeepsChainsWhole: A5 (3 ops at 100 a op) and A6 (1 op at
// 200 a op) under a 2-op cap. A6 pays more but cannot apply without A5, so
// the source's queue stops at A5 and neither is taken; another source's
// transaction that fits still is.
func TestSurgePriceKeepsChainsWhole(t *testing.T) {
	a5 := chainTx("A", 5, 300, 3)
	a6 := chainTx("A", 6, 200, 1)
	b := chainTx("B", 1, 100, 1)
	out := SurgePrice([]*Transaction{a6, b, a5}, 2)
	if len(out) != 1 || out[0] != b {
		t.Fatalf("SurgePrice kept %d transactions, want B's alone", len(out))
	}
	// With room, taking A5 exposes A6; B ties A5's rate and goes first on
	// its lower sequence number.
	out = SurgePrice([]*Transaction{a5, a6, b}, 5)
	if len(out) != 3 || out[0] != b || out[1] != a5 || out[2] != a6 {
		t.Fatalf("SurgePrice with room took %v", out)
	}
}

// TestSurgePriceOutputsPassTheRule: over random sources with random valid
// chains, fees and operation counts, every SurgePrice output is, per
// source, a whole valid chain within the cap.
func TestSurgePriceOutputsPassTheRule(t *testing.T) {
	c := newTestChain(t)
	var sources []AccountID
	for i := range 6 {
		sources = append(sources, c.fund(fmt.Sprintf("surge-%d", i), 10*One))
	}
	rng := rand.New(rand.NewSource(1))
	for trial := range 500 {
		var txs []*Transaction
		for _, src := range sources {
			seq := c.st.Account(src).SeqNum
			for range rng.Intn(5) {
				seq++
				nops := 1 + rng.Intn(4)
				txs = append(txs, chainTx(src, seq, DefaultBaseFee*Amount(nops)*Amount(1+rng.Intn(4)), nops))
			}
		}
		rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
		maxOps := rng.Intn(30)
		out := SurgePrice(txs, maxOps)
		ops := 0
		for _, tx := range out {
			ops += tx.NumOperations()
		}
		if ops > maxOps {
			t.Fatalf("trial %d: %d ops kept under a cap of %d", trial, ops, maxOps)
		}
		if !c.st.ValidChains(out, 100) {
			t.Fatalf("trial %d: a kept chain fails the rule", trial)
		}
	}
}

// TestZeroThresholdNeedsOneSignature: on an account whose thresholds are
// all zero a bad signature still fails, and the text names the weight of
// one valid signature that it lacks.
func TestZeroThresholdNeedsOneSignature(t *testing.T) {
	c := newTestChain(t)
	alice := c.fund("zero-alice", 100*One)
	tx := chainTx(alice, c.st.Account(alice).SeqNum+1, DefaultBaseFee, 1)
	tx.Sign(c.networkID, c.keys[c.master]) // not alice's key
	err := c.st.CheckSignatures(tx, c.networkID)
	if err == nil || !strings.Contains(err.Error(), "needs weight 1 at level 0, signatures carry 0") {
		t.Fatalf("CheckSignatures = %v, want it to need weight 1", err)
	}
}

// TestEveryMemberOfAChainPaysItsFee: a chain whose head merges its source,
// or takes the master key's weight away, passes the rule on the tip, and
// the members behind it cannot run. Each is still charged its fee, in the
// fee pass before any operation runs, so a chain cannot take ledger
// capacity with bids nobody pays.
func TestEveryMemberOfAChainPaysItsFee(t *testing.T) {
	zero := uint8(0)
	for _, tc := range []struct {
		name string
		head OpBody
		want string // the members' Err behind the head
	}{
		{"merge", &AccountMerge{}, "does not exist"},
		{"master weight 0", &SetOptions{MasterWeight: &zero}, "needs weight"},
	} {
		c := newTestChain(t)
		alice := c.fund("fee-pass-alice", 10*One)
		if m, ok := tc.head.(*AccountMerge); ok {
			m.Destination = c.master
		}
		at := c.st.Account(alice).SeqNum
		chain := []*Transaction{{Source: alice, Fee: DefaultBaseFee, SeqNum: at + 1, Operations: []Operation{{Body: tc.head}}}}
		for i := uint64(2); i <= 4; i++ {
			chain = append(chain, &Transaction{Source: alice, Fee: One, SeqNum: at + i, Operations: []Operation{
				{Body: &Payment{Destination: c.master, Asset: NativeAsset(), Amount: 1}}}})
		}
		for _, tx := range chain {
			tx.Sign(c.networkID, c.keys[alice])
		}
		if !c.st.ValidChains(chain, c.env.CloseTime) {
			t.Fatalf("%s: the chain fails the rule on the tip", tc.name)
		}
		feePool := c.st.FeePool
		results, _ := c.st.ApplyTxSet(&TxSet{Txs: chain}, c.networkID, &c.env)
		for i, r := range results {
			if r.FeeCharged != DefaultBaseFee {
				t.Errorf("%s: member %d charged %d, want %d (err %q)", tc.name, i, r.FeeCharged, DefaultBaseFee, r.Err)
			}
			if i == 0 && !r.Success || i > 0 && (r.Success || !strings.Contains(r.Err, tc.want)) {
				t.Errorf("%s: member %d: success %v, err %q", tc.name, i, r.Success, r.Err)
			}
		}
		if got := c.st.FeePool - feePool; got != 4*DefaultBaseFee {
			t.Errorf("%s: fee pool grew by %d, want %d", tc.name, got, 4*DefaultBaseFee)
		}
	}
}
