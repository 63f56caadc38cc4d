package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stellar/internal/herder"
	"stellar/internal/obs"
	"stellar/internal/obs/flight"
	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
)

// The acceptance loop of the detection layer: a partition must fire the
// close-stall alert on the starved side (plus quorum-unavailable once the
// peers go silent), a crash bundle must land on disk with every artifact,
// and both alerts must clear after the heal — asserted by the runner's
// own detection invariant plus direct bundle inspection here.
func TestPartitionAlertsFireAndResolve(t *testing.T) {
	bundleDir := t.TempDir()
	sc := PartitionHealScenario(1)
	// Equivocation only: a replay adversary re-sends captured envelopes
	// from the far side of the partition, refreshing the victims' liveness
	// evidence and masking the quorum outage from the health monitor — a
	// real detection-evasion property of replay attacks (see DESIGN.md
	// §15). The close stall still fires either way; quorum-unavailable
	// needs the peers to go properly silent.
	sc.Behaviors = BehaviorEquivocate
	sc.Trace = true // the crash bundle must carry the span store
	sc.ExpectAlerts = []AlertExpectation{
		{Alert: slo.RuleCloseStall, MustFire: true, MustResolve: true},
		{Alert: slo.RuleQuorumUnavailable, MustFire: true, MustResolve: true},
	}
	sc.BundleDir = bundleDir

	rep, err := Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AlertsFired) == 0 {
		t.Fatal("report lists no fired alerts")
	}
	if len(rep.Bundles) == 0 {
		t.Fatal("no crash bundle written during the stall")
	}

	// Inspect the first bundle: every post-mortem artifact present and
	// decodable, and the time-series window actually carries the stalled
	// close counter.
	dir := rep.Bundles[0]
	if !strings.Contains(filepath.Base(dir), "close-stall") {
		t.Fatalf("bundle dir %q not named for its reason", dir)
	}
	stacks, err := os.ReadFile(filepath.Join(dir, "stacks.txt"))
	if err != nil || !strings.Contains(string(stacks), "goroutine") {
		t.Fatalf("stacks.txt: err=%v", err)
	}
	var ts timeseries.Export
	decodeJSON(t, dir, "timeseries.json", &ts)
	if len(ts.Samples) == 0 {
		t.Fatal("timeseries.json holds no samples")
	}
	if _, ok := ts.Samples[len(ts.Samples)-1].Points["herder_ledgers_closed_total"]; !ok {
		t.Fatal("time-series window missing herder_ledgers_closed_total")
	}
	var spans obs.Export
	decodeJSON(t, dir, "spans.json", &spans)
	if spans.Schema != obs.ExportSchema {
		t.Fatalf("spans.json schema %q", spans.Schema)
	}
	var alerts slo.Report
	decodeJSON(t, dir, "alerts.json", &alerts)
	if !alerts.Enabled || alerts.Firing == 0 {
		t.Fatalf("alerts.json at dump time should show a firing alert: %+v", alerts)
	}
	var meta flight.Meta
	decodeJSON(t, dir, "meta.json", &meta)
	if meta.Schema != flight.MetaSchema || meta.Reason != "close-stall" {
		t.Fatalf("meta.json: %+v", meta)
	}
	// The bundle names the stalled slot: the starved node's newest record
	// is the slot after its last applied ledger, nominated, timed out and
	// not externalized.
	var slots []herder.SlotRecord
	decodeJSON(t, dir, "slots.json", &slots)
	if len(slots) == 0 {
		t.Fatal("slots.json holds no records")
	}
	open := slots[len(slots)-1]
	var applied uint64
	for _, r := range slots {
		if r.Applied != 0 {
			applied = r.Slot
		}
	}
	if open.Slot != applied+1 || open.NominationStart == 0 || open.Externalized != 0 ||
		open.NominationTimeouts+open.BallotTimeouts == 0 {
		t.Fatalf("newest record is not the stalled open slot after ledger %d: %+v", applied, open)
	}
}

// A fault-free soak must fire nothing: the false-positive guard on the
// whole rule table (boot-time gauge arming, windowed-delta coverage
// gating, unix-second close intervals).
func TestFaultFreeNoAlerts(t *testing.T) {
	rep, err := Run(Scenario{
		Name:            "fault-free-soak",
		Seed:            3,
		Validators:      4,
		NoAlerts:        true,
		LivenessLedgers: 6,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AlertsFired) != 0 {
		t.Fatalf("fault-free soak fired %v", rep.AlertsFired)
	}
	if rep.MinSeq < 6 {
		t.Fatalf("soak closed only %d ledgers", rep.MinSeq)
	}
}

func decodeJSON(t *testing.T, dir, name string, v any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
}
