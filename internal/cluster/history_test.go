//go:build smoke && linux

package cluster

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"stellar/internal/horizon"
)

// TestHistoryServedFromDataDir: a validator with a data dir serves a
// payment it applied from its own archive, by hash and in its ledger's
// transaction list, well before its first checkpoint (every 64 ledgers).
func TestHistoryServedFromDataDir(t *testing.T) {
	c := boot(t, Config{Validators: 1, Args: func(int) []string { return []string{"-data-dir", "data"} }})
	nd := c.Nodes[0]
	if err := c.WaitLedger(2, bootTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Fund(nd, 2, bootTimeout); err != nil {
		t.Fatal(err)
	}
	res, err := c.Pay(nd, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusAccepted || res.Hash == "" {
		t.Fatalf("payment: status %d, hash %q: %s", res.Status, res.Hash, res.Err)
	}

	var tx horizon.TxInfo
	for deadline := time.Now().Add(bootTimeout); ; time.Sleep(100 * time.Millisecond) {
		status, body, err := c.get(nd, "/transactions/"+res.Hash)
		if err == nil && status == http.StatusOK {
			if err := json.Unmarshal(body, &tx); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/transactions/%s: status %d (%v) after %v", res.Hash, status, err, bootTimeout)
		}
	}
	if tx.Hash != res.Hash || len(tx.Operations) != 1 || tx.Operations[0].Type != "Payment" {
		t.Fatalf("/transactions/%s = %+v", res.Hash, tx)
	}
	if tx.Ledger >= 64 {
		t.Fatalf("payment applied in ledger %d, at or past the first checkpoint", tx.Ledger)
	}

	var list struct {
		Transactions []horizon.TxInfo `json:"transactions"`
	}
	path := "/ledgers/" + strconv.FormatUint(uint64(tx.Ledger), 10) + "/transactions"
	status, body, err := c.get(nd, path)
	if err != nil || status != http.StatusOK {
		t.Fatalf("%s: status %d, %v", path, status, err)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range list.Transactions {
		found = found || in.Hash == res.Hash
	}
	if !found {
		t.Fatalf("%s lists %d transactions, not %s", path, len(list.Transactions), res.Hash)
	}
}
