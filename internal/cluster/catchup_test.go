//go:build smoke && linux

package cluster

import (
	"os"
	"path/filepath"
	"testing"
)

// TestColdNodeCatchesUpOverTheWire: three archiving validators close
// ledger 20; a fourth with an empty data dir and -catchup must fetch a
// peer's checkpointed state over the overlay, replay the ledgers past it
// from catch-up replies, join consensus and close five more ledgers
// byte-identical with the quorum (DESIGN.md §7).
func TestColdNodeCatchesUpOverTheWire(t *testing.T) {
	// All four identities are in the quorum (3-of-4), so the first three
	// close ledgers alone. A checkpoint every 16 ledgers leaves the latest
	// one behind the tip node-3 finds, so it must replay, not only adopt.
	c := boot(t, Config{Validators: 4, Running: 3, Args: func(i int) []string {
		args := []string{"-data-dir", "data", "-checkpoint-interval", "16"}
		if i == 3 {
			args = append(args, "-catchup")
		}
		return args
	}})
	if err := c.WaitLedger(20, bootTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.StartNode(3); err != nil {
		t.Fatal(err)
	}
	first, cold := c.Nodes[0], c.Nodes[3]
	li, err := c.Ledger(first, "latest")
	if err != nil {
		t.Fatal(err)
	}
	join := li.Sequence
	if err := c.WaitLedger(join+5, bootTimeout, cold); err != nil {
		t.Fatal(err)
	}

	m, err := c.Collect.FetchMetrics(cold.Target())
	if err != nil {
		t.Fatal(err)
	}
	if state, _ := m.Value("catchup_state"); state != 4 {
		t.Errorf("catchup_state %v, want 4 (done)", state)
	}
	if b := m.Sum("catchup_bytes_fetched_total"); b <= 0 {
		t.Error("node-3 fetched no archive bytes")
	}
	if r := m.Sum("catchup_ledgers_replayed_total"); r <= 0 {
		t.Error("node-3 replayed no ledger from catch-up replies")
	}
	// Only the checkpoint's state travels as files.
	if _, ok := m.Value(`catchup_files_fetched_total{kind="txset"}`); ok {
		t.Error("node-3 fetched tx-set files")
	}
	// Below its checkpoint node-3 has no headers; from the join ledger on
	// everything was replayed or closed live and must match exactly.
	sameHeaders(t, c, join, join+5, first, cold)
	if _, err := os.Stat(filepath.Join(cold.Dir, "data", "checkpoints", "latest")); err != nil {
		t.Errorf("node-3's archive has no checkpoint pointer: %v", err)
	}
}
