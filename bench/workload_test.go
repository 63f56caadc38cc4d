package main

import (
	"reflect"
	"testing"
)

func planOf(w workload, seed int64, n int) []plannedTx {
	p := newPlanner(w, seed)
	out := make([]plannedTx, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}

func TestPlanIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := planOf(w, 7, 500), planOf(w, 7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different plans", w.Name)
		}
		if reflect.DeepEqual(a, planOf(w, 8, 500)) {
			t.Errorf("%s: two seeds gave the same plan", w.Name)
		}
	}
}

func TestPlanShape(t *testing.T) {
	for _, w := range workloads {
		seen := map[int]bool{}
		for i, tx := range planOf(w, 1, w.Accounts) {
			if len(tx.Ops) != w.OpsPerTx {
				t.Fatalf("%s tx %d has %d ops, want %d", w.Name, i, len(tx.Ops), w.OpsPerTx)
			}
			if seen[tx.Source] {
				t.Fatalf("%s: source %d reused within one pass over the accounts", w.Name, tx.Source)
			}
			seen[tx.Source] = true
			for _, op := range tx.Ops {
				if op.Dest == tx.Source || op.Dest < 0 || op.Dest >= w.Accounts {
					t.Fatalf("%s tx %d pays account %d from %d", w.Name, i, op.Dest, tx.Source)
				}
				if op.Amount < 1 || op.Amount > 1000 {
					t.Fatalf("%s tx %d pays %d stroops", w.Name, i, op.Amount)
				}
			}
		}
	}
}

func TestFundingPlanCoversEveryAccountOnce(t *testing.T) {
	for _, w := range workloads {
		fp := newFundingPlan(w.Accounts)
		created := map[int]bool{}
		for h, share := range fp.Shares {
			if len(share) == 0 || len(share) > maxOpsPerTx {
				t.Fatalf("%s: hub %d creates %d accounts", w.Name, h, len(share))
			}
			for _, i := range share {
				if created[i] {
					t.Fatalf("%s: account %d funded twice", w.Name, i)
				}
				created[i] = true
			}
		}
		if len(created) != w.Accounts || len(fp.Hubs) > maxOpsPerTx {
			t.Fatalf("%s: %d of %d accounts funded by %d hubs", w.Name, len(created), w.Accounts, len(fp.Hubs))
		}
	}
}

// A built transaction must be what the nodes accept: it decodes, and its
// signature verifies against the source account's key.
func TestBuildTxSignsForTheNetwork(t *testing.T) {
	w := workloads[2] // batch_ops: the multi-operation shape
	accts := workloadAccounts(w.Accounts)
	p := newPlanner(w, 3).Next()
	tx := buildTx(p, accts)
	if tx.SeqNum != accts[p.Source].Seq+1 || tx.Fee != baseFee*20 {
		t.Fatalf("seq %d fee %d", tx.SeqNum, tx.Fee)
	}
	h := tx.Hash(networkID)
	if !accts[p.Source].KP.Public.Verify(h[:], tx.Signatures[0].Sig) {
		t.Fatal("signature does not verify")
	}
}
