//go:build linux

package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stellar/internal/ledger"
)

// These tests cover the harness pieces that need no node process, so they
// run in the default suite; the quorum tests carry the smoke tag.

// TestLogTailKeepsLastLines: LogTail returns at most the requested number
// of lines, the newest ones, and says why when the log is missing.
func TestLogTailKeepsLastLines(t *testing.T) {
	nd := &Node{Label: "node-0", Dir: t.TempDir()}
	if got := nd.LogTail(3); !strings.Contains(got, "no such file") {
		t.Errorf("missing log: %q", got)
	}
	if err := os.WriteFile(filepath.Join(nd.Dir, "log"), []byte("a\nb\nc\nd\ne\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := nd.LogTail(2); got != "d\ne" {
		t.Errorf("LogTail(2) = %q, want %q", got, "d\ne")
	}
	if got := nd.LogTail(10); got != "a\nb\nc\nd\ne" {
		t.Errorf("LogTail(10) = %q", got)
	}
}

// TestPaymentsFormARing: load account i pays account (i+1) mod n one
// native unit, signed with its own key at the sequence number asked for,
// so n concurrent payments touch every account once as source and once as
// destination.
func TestPaymentsFormARing(t *testing.T) {
	const n = 3
	sources := map[ledger.AccountID]bool{}
	for i := 0; i < n; i++ {
		tx := payment(i, n, 7)
		kp, id := account(i)
		_, to := account((i + 1) % n)
		if tx.Source != id || sources[id] || tx.SeqNum != 7 {
			t.Errorf("payment %d: source %s at sequence %d (seen before: %v)", i, tx.Source, tx.SeqNum, sources[id])
		}
		sources[id] = true
		if len(tx.Operations) != 1 {
			t.Fatalf("payment %d: %d operations", i, len(tx.Operations))
		}
		op, ok := tx.Operations[0].Body.(*ledger.Payment)
		if !ok || op.Destination != to || !op.Asset.IsNative() || op.Amount != ledger.One {
			t.Errorf("payment %d: %+v, want 1 native to %s", i, tx.Operations[0].Body, to)
		}
		h := tx.Hash(networkID)
		if len(tx.Signatures) != 1 || !kp.Public.Verify(h[:], tx.Signatures[0].Sig) {
			t.Errorf("payment %d is not signed by its source's key", i)
		}
	}
	if _, first := account(0); payment(n-1, n, 1).Operations[0].Body.(*ledger.Payment).Destination != first {
		t.Error("the last account does not pay the first")
	}
}

// TestFreePortsAreDistinct: one call hands out as many distinct loopback
// ports as asked for, since every node binds two of them.
func TestFreePortsAreDistinct(t *testing.T) {
	ports, err := freePorts(6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range ports {
		if p <= 0 || seen[p] {
			t.Errorf("port %d in %v: zero or repeated", p, ports)
		}
		seen[p] = true
	}
}
