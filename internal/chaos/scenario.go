package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"stellar/internal/obs/slo"
)

// Topology selects how validators' quorum sets are shaped.
type Topology string

// Topologies.
const (
	// TopologyFlat gives every validator one flat slice over all nodes
	// (honest and Byzantine) with a threshold high enough that any two
	// quorums intersect in more than the Byzantine count — the §3.1
	// precondition for the honest nodes to form an intact set.
	TopologyFlat Topology = "flat"
	// TopologyTiered groups validators into organizations of three and
	// synthesizes the nested §6.1 quorum sets (51% per org, 67% across
	// orgs); Byzantine validators are spread at most one per org.
	TopologyTiered Topology = "tiered"
)

// Scenario is a complete chaos experiment: a network shape, a fault
// schedule, an adversary contingent, and the invariant budget. The zero
// value of every field selects a sensible default.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed drives every random choice (network build, fault outcomes,
	// adversary behavior); a scenario replays exactly from its seed.
	Seed int64
	// Topology shapes the quorum sets.
	Topology Topology
	// Validators is the number of honest validators (default 5).
	Validators int
	// Byzantine is the number of adversary nodes (default 0). They hold
	// real keypairs and appear in every honest validator's quorum set.
	Byzantine int
	// Behaviors selects adversary attacks (default BehaviorAll).
	Behaviors Behavior
	// AdversaryLatency, when set, is the one-way latency of every link to
	// or from an adversary, in place of the network's model: a
	// well-connected relay whose packets arrive before honest ones.
	AdversaryLatency time.Duration
	// Accounts is the synthetic ledger population (default 200 — small:
	// chaos runs stress consensus, not the transaction engine).
	Accounts int
	// TxRate is offered load in tx/s (default 10).
	TxRate float64
	// LedgerInterval is the close cadence (default 5 s).
	LedgerInterval time.Duration
	// Faults is the scripted schedule. The network must be fully healed
	// by the last fault: the liveness-recovery window starts there.
	Faults Schedule
	// LivenessLedgers (K) is how many further ledgers every honest node
	// must close after the last fault heals (default 3).
	LivenessLedgers int
	// LivenessWindow bounds the virtual time allowed for that recovery
	// (default 60 s — twelve ledger cadences).
	LivenessWindow time.Duration
	// ArchiveDirFor gives validator i a private history archive at the
	// returned directory ("" = none). Required by FaultKillWipe and
	// FaultRejoin: peers need archives to serve network catchup from, and
	// the victim needs one to fetch (or restore) into.
	ArchiveDirFor func(i int) string
	// CheckpointInterval is the archiving cadence in ledgers (0 =
	// herder.DefaultCheckpointInterval; rejoin scenarios set 1, so a
	// checkpoint always exists).
	CheckpointInterval int
	// Replay overrides the replay command printed on failure.
	Replay string
	// Alerts attaches a per-validator SLO engine (internal/obs/slo) fed by
	// per-tick registry samples, making detection itself a tested
	// invariant. Implied by ExpectAlerts, NoAlerts, or BundleDir.
	Alerts bool
	// ExpectAlerts are detection assertions checked at end of run.
	ExpectAlerts []AlertExpectation
	// NoAlerts asserts no alert ever fired on any honest node — the
	// false-positive guard for fault-free soaks.
	NoAlerts bool
	// BundleDir, when set, attaches a flight recorder and a span tracer
	// to every honest node: a close-stall alert firing dumps a crash
	// bundle, span store included, there (Report.Bundles lists the
	// directories).
	BundleDir string
}

// AlertExpectation asserts one alert's behavior across a scenario.
type AlertExpectation struct {
	// Alert names the rule (slo.RuleCloseStall etc.).
	Alert string
	// MustFire requires the alert to have fired on at least one honest
	// node at some point during the run.
	MustFire bool
	// MustResolve requires the alert to not be firing on any honest node
	// when the run ends (after heal and liveness recovery).
	MustResolve bool
}

func (sc *Scenario) defaults() {
	if sc.Name == "" {
		sc.Name = fmt.Sprintf("seed-%d", sc.Seed)
	}
	if sc.Topology == "" {
		sc.Topology = TopologyFlat
	}
	if sc.Validators == 0 {
		sc.Validators = 5
	}
	if sc.Byzantine > 0 && sc.Behaviors == 0 {
		sc.Behaviors = BehaviorAll
	}
	if sc.Accounts == 0 {
		sc.Accounts = 200
	}
	if sc.TxRate == 0 {
		sc.TxRate = 10
	}
	if sc.LedgerInterval == 0 {
		sc.LedgerInterval = 5 * time.Second
	}
	if sc.LivenessLedgers == 0 {
		sc.LivenessLedgers = 3
	}
	if sc.LivenessWindow == 0 {
		sc.LivenessWindow = 60 * time.Second
	}
	if len(sc.ExpectAlerts) > 0 || sc.NoAlerts || sc.BundleDir != "" {
		sc.Alerts = true
	}
}

// ReplayCommand returns the command that reproduces this scenario.
func (sc *Scenario) ReplayCommand() string {
	if sc.Replay != "" {
		return sc.Replay
	}
	return fmt.Sprintf("go run ./cmd/stellar-chaos -seed %d", sc.Seed)
}

// PartitionHealScenario is the acceptance scenario of the chaos harness: a
// quorum-intersecting flat topology with one Byzantine equivocator gets
// partitioned into a majority and a minority side (the adversary straddles
// both — it forwards nothing, so the partition is real, but it can tell
// each side a different story), then heals. Safety must hold throughout
// and every honest node must close ledgers again after the heal. The split
// point varies with the seed.
func PartitionHealScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	const validators = 5
	perm := rng.Perm(validators)
	cut := 2 + rng.Intn(2) // a 2/3 or 3/2 split; one side plus the adversary can still form a quorum
	groups := [][]int{perm[:cut], perm[cut:]}
	return Scenario{
		Name:       "partition-byzantine-heal",
		Seed:       seed,
		Topology:   TopologyFlat,
		Validators: validators,
		Byzantine:  1,
		Behaviors:  BehaviorEquivocate | BehaviorReplay,
		TxRate:     8,
		Faults: Schedule{
			{At: 12 * time.Second, Kind: FaultPartition, Groups: groups},
			{At: 42 * time.Second, Kind: FaultHeal},
		},
		Replay: fmt.Sprintf("go run ./cmd/stellar-chaos -scenario partition-heal -seed %d", seed),
	}
}

// ForgeRelayScenario is the forged-relay scenario: five honest validators
// and one adversary that relays every envelope it hears, one signature bit
// flipped, over 0.5 ms links to every node, so each forged copy arrives
// before the genuine one. Liveness must hold: the overlay keys dedup on
// the signed bytes, signature included, and does not forward what SCP
// refused, so a forged copy can never stand in for the genuine envelope.
// The liveness window opens at 60 s.
func ForgeRelayScenario(seed int64) Scenario {
	return Scenario{
		Name:             "forge-relay",
		Seed:             seed,
		Topology:         TopologyFlat,
		Validators:       5,
		Byzantine:        1,
		Behaviors:        BehaviorForge,
		AdversaryLatency: 500 * time.Microsecond,
		Faults:           Schedule{{At: 60 * time.Second, Kind: FaultHeal}},
		LivenessWindow:   120 * time.Second,
		Replay:           fmt.Sprintf("go run ./cmd/stellar-chaos -scenario forge-relay -seed %d", seed),
	}
}

// KillWipeRejoinScenario is the durable-state acceptance scenario
// (DESIGN.md §7): five validators, each archiving to a private data dir
// (dirFor supplies the directories), lose three at once — enough that
// consensus stalls and the detection layer must fire close-stall and
// quorum-unavailable. The two bystanders later restart with their
// in-memory state intact; the victim comes back as a brand-new process
// that either lost its disk too (wipe=true: it cold-starts by fetching a
// peer's state over the network) or kept it (wipe=false: it restores
// from its own archive and replays). Reconvergence is byte-identical by
// construction: the invariant checker compares every header hash the
// rejoined node re-closes against the canon the network externalized,
// and the alerts must have resolved by the end of the liveness window.
func KillWipeRejoinScenario(seed int64, wipe bool, dirFor func(i int) string) Scenario {
	rng := rand.New(rand.NewSource(seed))
	const validators = 5
	perm := rng.Perm(validators)
	victim, down1, down2 := perm[0], perm[1], perm[2]
	name := "kill-restore-rejoin"
	victimKill := FaultCrash
	if wipe {
		name = "kill-wipe-rejoin"
		victimKill = FaultKillWipe
	}
	return Scenario{
		Name:       name,
		Seed:       seed,
		Topology:   TopologyFlat,
		Validators: validators,
		TxRate:     8,
		// Checkpoint every ledger so the bystanders always hold a
		// checkpoint at the stall tip for the victim to fetch or restore.
		ArchiveDirFor:      dirFor,
		CheckpointInterval: 1,
		Faults: Schedule{
			// Three of five down: below the flat 3-of-5 threshold, so the
			// survivors stall and their detection stacks light up.
			{At: 12 * time.Second, Kind: victimKill, Node: victim},
			{At: 12 * time.Second, Kind: FaultCrash, Node: down1},
			{At: 12 * time.Second, Kind: FaultCrash, Node: down2},
			// Bystanders return warm; quorum (4 of 5) re-forms without the
			// victim, so ledgers close again while it is still gone.
			{At: 44 * time.Second, Kind: FaultRestart, Node: down1},
			{At: 44 * time.Second, Kind: FaultRestart, Node: down2},
			// The victim returns as a fresh process and must rejoin via
			// disk restore or network catchup, then reconverge.
			{At: 52 * time.Second, Kind: FaultRejoin, Node: victim},
		},
		ExpectAlerts: []AlertExpectation{
			{Alert: slo.RuleCloseStall, MustFire: true, MustResolve: true},
			{Alert: slo.RuleQuorumUnavailable, MustFire: true, MustResolve: true},
		},
		LivenessLedgers: 3,
		LivenessWindow:  90 * time.Second,
		Replay:          fmt.Sprintf("go run ./cmd/stellar-chaos -scenario %s -seed %d", name, seed),
	}
}

// Generate builds a randomized scenario from a seed: topology, adversary
// contingent, and a fault schedule of partitions, crashes, loss and
// latency windows, all drawn deterministically. The generated schedule
// always restores everything it breaks, so the liveness-recovery invariant
// is meaningful.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name: fmt.Sprintf("random-%d", seed),
		Seed: seed,
	}

	// Shape: flat or tiered, with a Byzantine contingent small enough
	// that the honest nodes stay intact (f ≤ (honest−2)/2 keeps quorum
	// intersection honest; see quorumSetFor).
	if rng.Intn(2) == 0 {
		sc.Topology = TopologyTiered
		orgs := 2 + rng.Intn(2) // 2–3 orgs of 3
		total := orgs * 3
		sc.Byzantine = rng.Intn(2) // 0–1
		sc.Validators = total - sc.Byzantine
	} else {
		sc.Topology = TopologyFlat
		sc.Validators = 4 + rng.Intn(4) // 4–7
		maxByz := (sc.Validators - 2) / 2
		if maxByz > 2 {
			maxByz = 2
		}
		sc.Byzantine = rng.Intn(maxByz + 1)
	}
	if sc.Byzantine > 0 {
		behaviors := []Behavior{
			BehaviorEquivocate,
			BehaviorEquivocate | BehaviorReplay,
			BehaviorEquivocate | BehaviorFlood,
			BehaviorAll,
		}
		sc.Behaviors = behaviors[rng.Intn(len(behaviors))]
	}
	sc.TxRate = 5 + rng.Float64()*10

	// Fault windows. Each opens at t and closes 8–18 s later; openings
	// are spaced 6–14 s apart. Crash windows never overlap each other so
	// at most one honest node is down at a time (the partitions already
	// take whole groups offline).
	t := 10 * time.Second
	var end time.Duration
	nfaults := 2 + rng.Intn(4)
	partitioned := false
	crashFree := time.Duration(0)
	for i := 0; i < nfaults; i++ {
		w := 8*time.Second + time.Duration(rng.Int63n(int64(10*time.Second)))
		closeAt := t + w
		if closeAt > end {
			end = closeAt
		}
		switch pick := rng.Intn(5); {
		case pick == 0 && !partitioned:
			perm := rng.Perm(sc.Validators)
			cut := 1 + rng.Intn(sc.Validators-1)
			sc.Faults = append(sc.Faults,
				Fault{At: t, Kind: FaultPartition, Groups: [][]int{perm[:cut], perm[cut:]}},
				Fault{At: closeAt, Kind: FaultHeal})
			partitioned = true
		case pick <= 1 && t >= crashFree:
			victim := rng.Intn(sc.Validators)
			sc.Faults = append(sc.Faults,
				Fault{At: t, Kind: FaultCrash, Node: victim},
				Fault{At: closeAt, Kind: FaultRestart, Node: victim})
			crashFree = closeAt
		case pick == 2:
			sc.Faults = append(sc.Faults,
				Fault{At: t, Kind: FaultDropRate, Rate: 0.1 + rng.Float64()*0.3},
				Fault{At: closeAt, Kind: FaultDropRate, Rate: 0})
		case pick == 3:
			from := rng.Intn(sc.Validators)
			to := rng.Intn(sc.Validators)
			for to == from {
				to = rng.Intn(sc.Validators)
			}
			sc.Faults = append(sc.Faults,
				Fault{At: t, Kind: FaultLinkLoss, From: from, To: to, Rate: 0.4 + rng.Float64()*0.5},
				Fault{At: closeAt, Kind: FaultLinkLoss, From: from, To: to, Rate: 0})
		default:
			sc.Faults = append(sc.Faults,
				Fault{At: t, Kind: FaultLatencySpike, Extra: 50*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))},
				Fault{At: closeAt, Kind: FaultLatencyRestore})
		}
		t += 6*time.Second + time.Duration(rng.Int63n(int64(8*time.Second)))
	}
	// Terminal heal: restore anything still degraded so the liveness
	// window starts from a clean network.
	sc.Faults = append(sc.Faults, Fault{At: end + time.Second, Kind: FaultHeal})
	return sc
}
