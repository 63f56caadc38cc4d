package chaos

import (
	"fmt"
	"path/filepath"
	"testing"

	"stellar/internal/history"
	"stellar/internal/obs/slo"
)

// runRejoin executes the durable-state acceptance scenario and checks the
// pieces the runner's own invariants don't: the expected alerts appear in
// the report, the rejoined node's close records run up to its last closed
// ledger, and every validator's archive — including the victim's, which
// in the wipe variant was repopulated purely over the wire — holds a
// restorable checkpoint at the end.
func runRejoin(t *testing.T, wipe bool) {
	t.Helper()
	base := t.TempDir()
	dirFor := func(i int) string { return filepath.Join(base, fmt.Sprintf("node-%d", i)) }
	sc := KillWipeRejoinScenario(1, wipe, dirFor)
	r, err := NewRunner(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sc.Faults {
		if f.Kind != FaultRejoin {
			continue
		}
		var recorded uint32
		if recs := r.Sim.Records[f.Node]; len(recs) > 0 {
			recorded = recs[len(recs)-1].Seq
		}
		if tip := r.Sim.Nodes[f.Node].LastHeader().LedgerSeq; recorded != tip {
			t.Fatalf("rejoined node %d closed through ledger %d but its records stop at %d",
				f.Node, tip, recorded)
		}
	}
	fired := make(map[string]bool)
	for _, name := range rep.AlertsFired {
		fired[name] = true
	}
	if !fired[slo.RuleCloseStall] || !fired[slo.RuleQuorumUnavailable] {
		t.Fatalf("stall alerts missing from report: %v", rep.AlertsFired)
	}
	// Latency-percentile alerts may legitimately still fire (the stall's
	// close interval stays in their window); the stall alerts must not.
	for _, name := range rep.AlertsUnresolved {
		if name == slo.RuleCloseStall || name == slo.RuleQuorumUnavailable {
			t.Fatalf("%s still firing after reconvergence", name)
		}
	}
	for i := 0; i < 5; i++ {
		a, err := history.Open(dirFor(i))
		if err != nil {
			t.Fatalf("node %d archive: %v", i, err)
		}
		if _, err := a.LatestCheckpointSeq(); err != nil {
			t.Fatalf("node %d archive has no checkpoint: %v", i, err)
		}
	}
}

// TestKillWipeRejoin: the victim loses process AND disk, and must rejoin
// by fetching a peer's archive over the network (cold-start catchup).
func TestKillWipeRejoin(t *testing.T) { runRejoin(t, true) }

// TestKillRestoreRejoin: the victim loses only its process; the fresh
// replacement restores from its surviving archive and replays to the tip.
func TestKillRestoreRejoin(t *testing.T) { runRejoin(t, false) }
