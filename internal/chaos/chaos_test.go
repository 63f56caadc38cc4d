package chaos

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// seedCount returns how many seeds a sweep should run: def by default,
// more when CHAOS_SEEDS is set (the nightly CI job raises it).
func seedCount(t *testing.T, def int) int {
	t.Helper()
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SEEDS=%q", s)
		}
		return n
	}
	return def
}

// --- invariant checker unit tests (fake node views) ---

type fakeView struct {
	seq    uint32
	hashes map[uint32]stellarcrypto.Hash
}

func (f *fakeView) LastHeader() *ledger.Header {
	if f.seq == 0 {
		return nil
	}
	return &ledger.Header{LedgerSeq: f.seq}
}

func (f *fakeView) HeaderHash(s uint32) (stellarcrypto.Hash, bool) {
	h, ok := f.hashes[s]
	return h, ok
}

func (f *fakeView) close(seq uint32, value string) {
	if f.hashes == nil {
		f.hashes = make(map[uint32]stellarcrypto.Hash)
	}
	f.seq = seq
	f.hashes[seq] = stellarcrypto.HashBytes([]byte(value))
}

func TestCheckerAgreementPasses(t *testing.T) {
	a, b := &fakeView{}, &fakeView{}
	c := NewChecker(a, b)
	for seq := uint32(1); seq <= 5; seq++ {
		a.close(seq, fmt.Sprintf("v%d", seq))
		if err := c.Check(); err != nil {
			t.Fatalf("leader alone: %v", err)
		}
		b.close(seq, fmt.Sprintf("v%d", seq))
		if err := c.Check(); err != nil {
			t.Fatalf("follower caught up: %v", err)
		}
	}
	if c.MinSeq() != 5 || c.MaxSeq() != 5 {
		t.Fatalf("seqs = %d..%d, want 5..5", c.MinSeq(), c.MaxSeq())
	}
}

func TestCheckerDetectsSafetyViolation(t *testing.T) {
	a, b := &fakeView{}, &fakeView{}
	c := NewChecker(a, b)
	a.close(1, "value-A")
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	b.close(1, "value-B") // diverging externalization for slot 1
	err := c.Check()
	if err == nil || err.Invariant != "safety" {
		t.Fatalf("got %v, want safety violation", err)
	}
	if !strings.Contains(err.Detail, "ledger 1") {
		t.Fatalf("detail %q does not name the slot", err.Detail)
	}
}

func TestCheckerDetectsRegression(t *testing.T) {
	a := &fakeView{}
	c := NewChecker(a)
	a.close(3, "v3")
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	a.seq = 2 // last-closed ledger went backwards
	err := c.Check()
	if err == nil || err.Invariant != "monotonicity" {
		t.Fatalf("got %v, want monotonicity violation", err)
	}
}

func TestCheckerSkipsMissingHeaders(t *testing.T) {
	// A node that fast-forwarded from a checkpoint has no early headers;
	// the checker must not treat the gap as disagreement.
	a, b := &fakeView{}, &fakeView{}
	c := NewChecker(a, b)
	for seq := uint32(1); seq <= 4; seq++ {
		a.close(seq, fmt.Sprintf("v%d", seq))
	}
	b.close(4, "v4") // only the tip
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLiveness(t *testing.T) {
	if err := checkLiveness([]uint32{7, 8}, []uint32{4, 5}, 3); err != nil {
		t.Fatalf("3 ledgers each should satisfy K=3: %v", err)
	}
	err := checkLiveness([]uint32{7, 6}, []uint32{4, 5}, 3)
	if err == nil || err.Invariant != "liveness" {
		t.Fatalf("got %v, want liveness violation", err)
	}
}

// --- scenario generator ---

func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
	}
}

func TestGenerateSchedulesAreWellFormed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		sc := Generate(seed)
		if sc.Validators < 4 {
			t.Fatalf("seed %d: only %d validators", seed, sc.Validators)
		}
		if sc.Byzantine >= sc.Validators {
			t.Fatalf("seed %d: %d byzantine vs %d honest", seed, sc.Byzantine, sc.Validators)
		}
		if len(sc.Faults) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		last := sc.Faults[len(sc.Faults)-1]
		if last.Kind != FaultHeal || last.At != sc.Faults.End() {
			t.Fatalf("seed %d: schedule does not end with a heal", seed)
		}
		for _, f := range sc.Faults {
			for _, g := range f.Groups {
				for _, idx := range g {
					if idx < 0 || idx >= sc.Validators {
						t.Fatalf("seed %d: fault %s targets out-of-range node", seed, f)
					}
				}
			}
			if f.Kind == FaultCrash || f.Kind == FaultRestart {
				if f.Node < 0 || f.Node >= sc.Validators {
					t.Fatalf("seed %d: fault %s targets out-of-range node", seed, f)
				}
			}
		}
	}
}

// --- full scenario runs ---

// TestPartitionHealSweep is the acceptance gate for the chaos harness: the
// partition + Byzantine-equivocator + heal scenario must keep safety and
// recover liveness across at least 20 distinct seeds.
func TestPartitionHealSweep(t *testing.T) {
	seeds := seedCount(t, 20)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(PartitionHealScenario(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.LedgersAfterHeal < 3 {
				t.Fatalf("only %d ledgers after heal", rep.LedgersAfterHeal)
			}
			if rep.AdversaryPackets == 0 {
				t.Fatal("adversary sent nothing; scenario did not exercise Byzantine paths")
			}
			if rep.NetStats.DroppedCut == 0 {
				t.Fatal("no messages were cut; partition never took effect")
			}
		})
	}
}

// TestForgeRelaySweep: one adversary on fast links relays every envelope
// with a flipped signature bit. Honest nodes must keep closing ledgers on
// every seed — a forged copy is refused and not forwarded, and it never
// shadows the genuine envelope in a seen set.
func TestForgeRelaySweep(t *testing.T) {
	seeds := seedCount(t, 20)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(ForgeRelayScenario(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.AdversaryPackets == 0 {
				t.Fatal("the adversary forged nothing")
			}
			if rep.MinSeq < 10 {
				t.Fatalf("honest nodes closed only %d ledgers in %v", rep.MinSeq, rep.VirtualTime)
			}
		})
	}
}

// TestRandomScenarioSweep drives the generator end to end on a handful of
// seeds (the nightly job widens the sweep via CHAOS_SEEDS).
func TestRandomScenarioSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("random scenario sweep skipped in -short mode")
	}
	seeds := seedCount(t, 6)
	for seed := int64(1000); seed < int64(1000+seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Generate(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.MinSeq == 0 {
				t.Fatal("a node closed no ledgers at all")
			}
		})
	}
}

func TestCrashRestartRecovery(t *testing.T) {
	rep, err := Run(Scenario{
		Name:       "crash-restart",
		Seed:       7,
		Validators: 4,
		Faults: Schedule{
			{At: 11 * time.Second, Kind: FaultCrash, Node: 2},
			{At: 31 * time.Second, Kind: FaultRestart, Node: 2},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NetStats.DroppedDown == 0 {
		t.Fatal("no traffic dropped while the node was down; crash never took effect")
	}
	if rep.LedgersAfterHeal < 3 {
		t.Fatalf("restarted node closed only %d ledgers after heal", rep.LedgersAfterHeal)
	}
}

func TestTieredTopologyUnderPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("tiered partition scenario skipped in -short mode")
	}
	rep, err := Run(Scenario{
		Name:       "tiered-partition",
		Seed:       11,
		Topology:   TopologyTiered,
		Validators: 8, // + 1 byzantine = 3 orgs of 3
		Byzantine:  1,
		Faults: Schedule{
			{At: 10 * time.Second, Kind: FaultPartition, Groups: [][]int{{0, 1, 2}, {3, 4, 5, 6, 7}}},
			{At: 35 * time.Second, Kind: FaultHeal},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LedgersAfterHeal < 3 {
		t.Fatalf("only %d ledgers after heal", rep.LedgersAfterHeal)
	}
}

// TestByzantineOnlyNoStall runs every adversary behavior against a healthy
// network: progress and safety must be unaffected by equivocation, replay,
// and flooding alone.
func TestByzantineOnlyNoStall(t *testing.T) {
	r, err := NewRunner(Scenario{
		Name:       "byzantine-only",
		Seed:       23,
		Validators: 5,
		Byzantine:  2,
		Behaviors:  BehaviorAll,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var emitted uint64
	for _, a := range r.Advs {
		emitted += a.Emitted
	}
	if emitted == 0 {
		t.Fatal("adversaries emitted nothing")
	}
	if rep.MinSeq < 3 {
		t.Fatalf("network closed only %d ledgers under attack", rep.MinSeq)
	}
}

// TestFailureReportsSeedAndReplay forces an invariant failure (an
// impossible liveness budget) and checks the error carries everything
// needed to reproduce: seed, schedule, and replay command.
func TestFailureReportsSeedAndReplay(t *testing.T) {
	sc := Scenario{
		Name:            "impossible",
		Seed:            99,
		Validators:      4,
		Faults:          Schedule{{At: 10 * time.Second, Kind: FaultHeal}},
		LivenessLedgers: 1000,
		LivenessWindow:  2 * time.Second,
	}
	_, err := Run(sc, nil)
	if err == nil {
		t.Fatal("impossible liveness budget passed")
	}
	msg := err.Error()
	for _, want := range []string{"seed 99", "liveness", sc.ReplayCommand()} {
		if !strings.Contains(msg, want) {
			t.Fatalf("failure message missing %q:\n%s", want, msg)
		}
	}
}

// TestReportCountsTheRun checks the outcome a run reports: every scheduled
// fault injected, the adversaries' packets, and the ledgers closed.
func TestReportCountsTheRun(t *testing.T) {
	sc := PartitionHealScenario(3)
	rep, err := Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsInjected != len(sc.Faults) || rep.FaultsInjected == 0 {
		t.Fatalf("report counts %d faults, scenario scheduled %d", rep.FaultsInjected, len(sc.Faults))
	}
	if sc.Byzantine > 0 && rep.AdversaryPackets == 0 {
		t.Fatalf("%d adversaries sent no packets", sc.Byzantine)
	}
	if rep.MinSeq == 0 || rep.MinSeq > rep.MaxSeq || rep.LedgersAfterHeal == 0 {
		t.Fatalf("ledgers %d..%d, %d after heal", rep.MinSeq, rep.MaxSeq, rep.LedgersAfterHeal)
	}
}

// TestRunsAreDeterministic: identical seeds must produce identical runs —
// the property the replay command relies on.
func TestRunsAreDeterministic(t *testing.T) {
	a, err := Run(PartitionHealScenario(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(PartitionHealScenario(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.NetStats != b.NetStats {
		t.Fatalf("replay diverged:\n  %s\n  %+v\nvs\n  %s\n  %+v", a, a.NetStats, b, b.NetStats)
	}
}

// TestForgedClosedSlotEnvelopesAreNotForwarded: an adversary sends, each
// round, differently forged copies of an envelope for a closed slot to one
// honest validator. Every honest node verifies a closed-slot envelope
// before forwarding it, so no copy comes back, and consensus goes on.
func TestForgedClosedSlotEnvelopesAreNotForwarded(t *testing.T) {
	r, err := NewRunner(Scenario{Name: "forge-closed", Seed: 1, Byzantine: 1, Behaviors: BehaviorForgeClosed,
		Faults: Schedule{{At: 60 * time.Second, Kind: FaultHeal}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	adv := r.Advs[0]
	if adv.Emitted < 100 {
		t.Fatalf("the adversary forged %d closed-slot copies, want at least 100", adv.Emitted)
	}
	if adv.Echoed != 0 {
		t.Fatalf("honest nodes forwarded forged closed-slot copies %d times, want 0", adv.Echoed)
	}
	if rep.MinSeq < 10 {
		t.Fatalf("honest nodes closed only %d ledgers in %v", rep.MinSeq, rep.VirtualTime)
	}
}
