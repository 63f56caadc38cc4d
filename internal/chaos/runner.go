package chaos

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"stellar/internal/experiments"
	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/history"
	"stellar/internal/obs"
	"stellar/internal/obs/flight"
	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
	"stellar/internal/qconfig"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Report summarizes a completed scenario run.
type Report struct {
	Name             string
	Seed             int64
	VirtualTime      time.Duration
	MinSeq           uint32 // lowest last-closed ledger across honest nodes
	MaxSeq           uint32 // highest last-closed ledger across honest nodes
	LedgersAfterHeal uint32 // fewest ledgers any honest node closed after the last fault
	FaultsInjected   int
	AdversaryPackets uint64
	NetStats         simnet.Stats
	// Phases is the per-phase latency decomposition when the scenario ran
	// with Trace set, nil otherwise.
	Phases *obs.Decomposition
	// AlertsFired lists every alert that fired on any honest node during
	// an Alerts-enabled run; AlertsUnresolved lists those still firing at
	// the end; Bundles lists crash-bundle directories the flight
	// recorders wrote.
	AlertsFired      []string
	AlertsUnresolved []string
	Bundles          []string
}

// String renders the report as one line.
func (r *Report) String() string {
	return fmt.Sprintf("%s seed=%d: ok  ledgers=%d..%d  after-heal=%d  faults=%d  adv-packets=%d  t=%v",
		r.Name, r.Seed, r.MinSeq, r.MaxSeq, r.LedgersAfterHeal, r.FaultsInjected,
		r.AdversaryPackets, r.VirtualTime)
}

// instruments are the chaos harness's registry series.
type instruments struct {
	scenarios *obs.CounterVec // chaos_scenarios_total{outcome}
	faults    *obs.CounterVec // chaos_faults_injected_total{kind}
	failures  *obs.CounterVec // chaos_invariant_failures_total{invariant}
	ledgers   *obs.Counter    // chaos_ledgers_closed_total
	advSent   *obs.Counter    // chaos_adversary_packets_total
}

func newInstruments(reg *obs.Registry) *instruments {
	if reg == nil {
		return nil
	}
	return &instruments{
		scenarios: reg.CounterVec("chaos_scenarios_total",
			"chaos scenarios run, by outcome", "outcome"),
		faults: reg.CounterVec("chaos_faults_injected_total",
			"faults injected into simulated networks", "kind"),
		failures: reg.CounterVec("chaos_invariant_failures_total",
			"invariant violations detected", "invariant"),
		ledgers: reg.Counter("chaos_ledgers_closed_total",
			"ledgers closed across all chaos scenarios (slowest node's view)"),
		advSent: reg.Counter("chaos_adversary_packets_total",
			"attack packets emitted by Byzantine adversaries"),
	}
}

// Runner executes one scenario: it builds the simulated network and its
// adversaries, applies the fault schedule in virtual-time order, checks
// invariants every tick, and enforces liveness recovery after the heal.
type Runner struct {
	Scenario Scenario
	Sim      *experiments.SimNetwork
	Advs     []*Adversary
	Checker  *Checker

	baseLatency simnet.LatencyModel
	ins         *instruments
	log         *slog.Logger
	probes      []*alertProbe
}

// alertProbe is one honest validator's detection stack: a time-series
// ring over the node's private registry, the SLO engine judging it, and
// (optionally) a flight recorder dumping crash bundles on close stalls.
// The simulation is single-threaded, so the runner samples and evaluates
// every probe between ticks with no extra locking.
type alertProbe struct {
	idx     int
	ring    *timeseries.Ring
	engine  *slo.Engine
	flight  *flight.Recorder
	bundles []string
}

// Run builds and executes a scenario; ob (optional) supplies the metric
// registry for outcome counters and the logger.
func Run(sc Scenario, ob *obs.Obs) (*Report, error) {
	r, err := NewRunner(sc, ob)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// quorumSetFor builds the quorum set every validator (honest and
// Byzantine) advertises, given the scenario topology.
func quorumSetFor(topology Topology, honest, byz []fba.NodeID) (fba.QuorumSet, error) {
	switch topology {
	case TopologyFlat:
		all := append(append([]fba.NodeID(nil), honest...), byz...)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		// Any two quorums must intersect in more than |byz| nodes, so the
		// intersection always contains an honest node: 2t−n ≥ f+1.
		t := (len(all)+len(byz))/2 + 1
		return fba.QuorumSet{Threshold: t, Validators: all}, nil
	case TopologyTiered:
		// Organizations of three, at most one Byzantine member each (its
		// org's 2-of-3 threshold still reaches honest agreement).
		members := append([]fba.NodeID(nil), honest...)
		for i, b := range byz {
			at := i * 3
			if at > len(members) {
				at = len(members)
			}
			members = append(members[:at], append([]fba.NodeID{b}, members[at:]...)...)
		}
		if len(members)%3 != 0 {
			return fba.QuorumSet{}, fmt.Errorf("chaos: tiered topology needs a multiple of 3 validators, have %d", len(members))
		}
		var cfg qconfig.Config
		for o := 0; o*3 < len(members); o++ {
			cfg.Orgs = append(cfg.Orgs, qconfig.Organization{
				Name:       fmt.Sprintf("org%02d", o),
				Quality:    qconfig.High,
				Validators: members[o*3 : o*3+3],
			})
		}
		return cfg.Synthesize()
	default:
		return fba.QuorumSet{}, fmt.Errorf("chaos: unknown topology %q", topology)
	}
}

// NewRunner builds the scenario's network, adversaries, and checker.
func NewRunner(sc Scenario, ob *obs.Obs) (*Runner, error) {
	sc.defaults()
	ob = ob.Normalize()
	r := &Runner{
		Scenario: sc,
		ins:      newInstruments(ob.Reg),
		log:      obs.Component(ob.Log, "chaos"),
	}

	// Byzantine identities exist before the network is built so honest
	// quorum sets can include them (a befouled configuration, §3.1).
	byzKeys := stellarcrypto.DeterministicKeyPairs(fmt.Sprintf("byzantine-%d", sc.Seed), sc.Byzantine)
	byzIDs := make([]fba.NodeID, len(byzKeys))
	for i, kp := range byzKeys {
		byzIDs[i] = fba.NodeIDFromPublicKey(kp.Public)
	}

	var qsErr error
	opts := experiments.Options{
		Validators:     sc.Validators,
		Accounts:       sc.Accounts,
		TxRate:         sc.TxRate,
		LedgerInterval: sc.LedgerInterval,
		Seed:           sc.Seed,
		QSetFor: func(i int, all []fba.NodeID) fba.QuorumSet {
			qs, err := quorumSetFor(sc.Topology, all, byzIDs)
			if err != nil && qsErr == nil {
				qsErr = err
			}
			return qs
		},
		ArchiveDirFor:      sc.ArchiveDirFor,
		CheckpointInterval: sc.CheckpointInterval,
		Trace:              sc.Trace,
	}
	sim, err := experiments.Build(opts)
	if err != nil {
		return nil, err
	}
	if qsErr != nil {
		return nil, qsErr
	}
	r.Sim = sim
	r.baseLatency = sim.Net.Latency()

	honestAddrs := make([]simnet.Addr, len(sim.Nodes))
	honestIDs := make([]fba.NodeID, len(sim.Nodes))
	views := make([]NodeView, len(sim.Nodes))
	for i, n := range sim.Nodes {
		honestAddrs[i] = n.Addr()
		honestIDs[i] = n.ID()
		views[i] = n
	}
	r.Checker = NewChecker(views...)

	for i, kp := range byzKeys {
		qs, err := quorumSetFor(sc.Topology, honestIDs, byzIDs)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(sc.Seed ^ int64(0x5eed<<16) ^ int64(i+1)))
		adv := NewAdversary(sim.Net, kp, qs, sim.NetworkID, sc.Behaviors, rng)
		adv.Connect(honestAddrs...)
		for _, n := range sim.Nodes {
			n.Overlay().Connect(adv.Addr())
		}
		r.Advs = append(r.Advs, adv)
	}

	if sc.Alerts {
		for i, n := range sim.Nodes {
			p := &alertProbe{idx: i, ring: timeseries.New(0)}
			p.engine = slo.NewEngine(p.ring, slo.DefaultRules(slo.Config{
				LedgerInterval: sc.LedgerInterval,
			}), n.Obs().Reg, ob.Log)
			if sc.BundleDir != "" {
				p.flight = flight.New(flight.Config{
					Dir:    sc.BundleDir,
					Node:   fmt.Sprintf("node-%d", i),
					Ring:   p.ring,
					Tracer: n.Obs().Tracer,
					Slots:  func() any { return n.SlotRecords() },
					Alerts: p.engine,
					Clock:  sim.Net.Now,
					Log:    ob.Log,
				})
				probe := p
				p.engine.OnTransition(func(rule slo.Rule, from, to slo.State, now time.Duration) {
					if rule.Name == slo.RuleCloseStall && to == slo.StateFiring {
						if dir, ok := probe.flight.AutoDump("close-stall", now); ok {
							probe.bundles = append(probe.bundles, dir)
						}
					}
				})
			}
			r.probes = append(r.probes, p)
		}
	}
	return r, nil
}

// sampleProbes feeds every probe one detection tick: refresh the node's
// pull-style quorum gauges, snapshot its registry into the ring, and run
// the rule engine on the virtual clock. Gauges otherwise refresh only at
// ledger close — exactly the event a stall withholds.
func (r *Runner) sampleProbes(now time.Duration) {
	for _, p := range r.probes {
		n := r.Sim.Nodes[p.idx]
		n.RefreshQuorumHealth()
		p.ring.Observe(now, n.Obs().Reg.Snapshot())
		p.engine.Evaluate(now)
	}
}

// apply injects one fault into the running network. Faults that touch
// durable state (kill_wipe, rejoin) can fail on a misconfigured scenario;
// that is a harness error, not an invariant violation.
func (r *Runner) apply(f Fault) error {
	net := r.Sim.Net
	addr := func(i int) simnet.Addr { return r.Sim.Nodes[i].Addr() }
	switch f.Kind {
	case FaultPartition:
		groups := make([][]simnet.Addr, len(f.Groups))
		for gi, g := range f.Groups {
			for _, i := range g {
				groups[gi] = append(groups[gi], addr(i))
			}
		}
		net.PartitionGroups(groups...)
	case FaultHeal:
		net.HealAll()
	case FaultCrash:
		net.SetDown(addr(f.Node))
	case FaultRestart:
		net.SetUp(addr(f.Node))
		// The process is back with its herder state intact: re-arm its
		// ledger cadence and let it announce its latest consensus state.
		r.Sim.Nodes[f.Node].Start()
		r.Sim.Nodes[f.Node].RebroadcastLatest()
	case FaultDropRate:
		net.SetDropRate(f.Rate)
	case FaultLinkLoss:
		net.SetLinkDropRate(addr(f.From), addr(f.To), f.Rate)
	case FaultLatencySpike:
		base := r.baseLatency
		extra := f.Extra
		net.SetLatency(func(from, to simnet.Addr, rng *rand.Rand) time.Duration {
			return base(from, to, rng) + extra
		})
	case FaultLatencyRestore:
		net.SetLatency(r.baseLatency)
	case FaultKillWipe:
		net.SetDown(addr(f.Node))
		if err := r.wipeArchive(f.Node); err != nil {
			return fmt.Errorf("chaos: kill_wipe node %d: %w", f.Node, err)
		}
	case FaultRejoin:
		if err := r.rejoin(f.Node); err != nil {
			return fmt.Errorf("chaos: rejoin node %d: %w", f.Node, err)
		}
	}
	if r.ins != nil {
		r.ins.faults.With(f.Kind.String()).Inc()
	}
	r.log.Info("fault injected", "fault", f.String(), "t", net.Now())
	return nil
}

// wipeArchive destroys node i's archive directory and reopens it empty —
// the disk half of kill_wipe. The crashed node's old in-memory handle is
// never used again (rejoin builds a replacement on the fresh handle).
func (r *Runner) wipeArchive(i int) error {
	a := r.Sim.Archives[i]
	if a == nil {
		return fmt.Errorf("no archive (scenario needs ArchiveDirFor)")
	}
	dir := a.Dir()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	fresh, err := history.Open(dir)
	if err != nil {
		return err
	}
	r.Sim.Archives[i] = fresh
	r.Sim.Configs[i].Archive = fresh
	return nil
}

// rejoin replaces node i with a freshly built process sharing its
// identity: herder.New re-registers the address on the simulated network
// (replacing the dead handler), the overlay is re-meshed, and the node
// boots the way a real restart would — restore-and-replay when its
// archive still holds a checkpoint, network catchup when it was wiped.
func (r *Runner) rejoin(i int) error {
	cfg := r.Sim.Configs[i]
	if cfg.Archive == nil {
		return fmt.Errorf("no archive (scenario needs ArchiveDirFor)")
	}
	node, err := herder.New(r.Sim.Net, cfg)
	if err != nil {
		return err
	}
	r.Sim.Net.SetUp(node.Addr())
	// The alert probe needs no rebinding: its engine judges the ring, and
	// sampleProbes re-reads r.Sim.Nodes[i] each tick, so the next sample
	// already snapshots the replacement's registry. Keeping the engine
	// preserves its fired-alert history for the detection assertions.
	r.Sim.Nodes[i] = node
	r.Checker.Replace(i, node)
	for j, peer := range r.Sim.Nodes {
		if j == i {
			continue
		}
		node.Overlay().Connect(peer.Addr())
		peer.Overlay().Connect(node.Addr())
	}
	for _, adv := range r.Advs {
		node.Overlay().Connect(adv.Addr())
		adv.Connect(node.Addr())
	}
	if _, err := cfg.Archive.LatestCheckpointSeq(); err == nil {
		// Disk survived: a warm restart — restore, replay, rejoin.
		if _, err := node.RestoreFromArchive(cfg.Archive); err != nil {
			return err
		}
		node.Start()
		node.RebroadcastLatest()
		return nil
	}
	// Disk wiped: cold-start over the network.
	return node.StartNetworkCatchup(nil)
}

// fail records and wraps an invariant violation with everything needed to
// reproduce it: the scenario seed, the fault schedule, and a replay
// command.
func (r *Runner) fail(ie *InvariantError) error {
	if r.ins != nil {
		r.ins.failures.With(ie.Invariant).Inc()
		r.ins.scenarios.With("fail").Inc()
	}
	var faults strings.Builder
	for _, f := range r.Scenario.Faults {
		fmt.Fprintf(&faults, "    %s\n", f)
	}
	return fmt.Errorf("chaos: scenario %q seed %d: %w\n  schedule:\n%s  replay: %s",
		r.Scenario.Name, r.Scenario.Seed, ie, faults.String(), r.Scenario.ReplayCommand())
}

// Run executes the scenario and returns its report, or an error carrying
// the seed and replay command if any invariant fails.
func (r *Runner) Run() (*Report, error) {
	sc := r.Scenario
	sched := append(Schedule(nil), sc.Faults...)
	sched.Sort()

	r.Sim.Start()
	for _, a := range r.Advs {
		a.Start()
	}

	net := r.Sim.Net
	nextAE := sc.AntiEntropy
	// advance steps virtual time to the target, checking invariants every
	// tick and running anti-entropy rebroadcast on its cadence.
	advance := func(until time.Duration) *InvariantError {
		for net.Now() < until {
			step := until - net.Now()
			if step > sc.Tick {
				step = sc.Tick
			}
			net.RunFor(step)
			if ie := r.Checker.Check(); ie != nil {
				return ie
			}
			r.sampleProbes(net.Now())
			if net.Now() >= nextAE {
				for _, n := range r.Sim.Nodes {
					n.RebroadcastLatest()
				}
				nextAE = net.Now() + sc.AntiEntropy
			}
		}
		return nil
	}

	for _, f := range sched {
		if ie := advance(f.At); ie != nil {
			return nil, r.fail(ie)
		}
		if err := r.apply(f); err != nil {
			if r.ins != nil {
				r.ins.scenarios.With("fail").Inc()
			}
			return nil, err
		}
	}

	// The network is healed; the liveness-recovery clock starts.
	healAt := net.Now()
	baseline := r.Checker.Seqs()
	deadline := healAt + sc.LivenessWindow
	for net.Now() < deadline {
		target := net.Now() + sc.Tick
		if target > deadline {
			target = deadline
		}
		if ie := advance(target); ie != nil {
			return nil, r.fail(ie)
		}
		if livenessSatisfied(r.Checker.Seqs(), baseline, sc.LivenessLedgers) {
			break
		}
	}
	if ie := checkLiveness(r.Checker.Seqs(), baseline, sc.LivenessLedgers); ie != nil {
		return nil, r.fail(ie)
	}

	// Detection assertions: the alerts the scenario expected must have
	// fired, and the ones required to resolve must not be firing anywhere
	// now that the network is healed.
	var alertsFired, alertsUnresolved, bundles []string
	if len(r.probes) > 0 {
		firedSet := make(map[string]bool)
		firingSet := make(map[string]bool)
		for _, p := range r.probes {
			for _, name := range p.engine.EverFired() {
				firedSet[name] = true
				if p.engine.State(name) == slo.StateFiring {
					firingSet[name] = true
				}
			}
			bundles = append(bundles, p.bundles...)
		}
		for name := range firedSet {
			alertsFired = append(alertsFired, name)
		}
		for name := range firingSet {
			alertsUnresolved = append(alertsUnresolved, name)
		}
		sort.Strings(alertsFired)
		sort.Strings(alertsUnresolved)
		for _, exp := range sc.ExpectAlerts {
			if exp.MustFire && !firedSet[exp.Alert] {
				return nil, r.fail(&InvariantError{Invariant: "detection",
					Detail: fmt.Sprintf("alert %q never fired on any honest node (fired: %v)", exp.Alert, alertsFired)})
			}
			if exp.MustResolve && firingSet[exp.Alert] {
				return nil, r.fail(&InvariantError{Invariant: "detection",
					Detail: fmt.Sprintf("alert %q still firing after heal and liveness recovery", exp.Alert)})
			}
		}
		if sc.NoAlerts && len(alertsFired) > 0 {
			return nil, r.fail(&InvariantError{Invariant: "detection",
				Detail: fmt.Sprintf("fault-free run fired alerts: %v", alertsFired)})
		}
	}

	rep := &Report{
		Name:           sc.Name,
		Seed:           sc.Seed,
		VirtualTime:    net.Now(),
		MinSeq:         r.Checker.MinSeq(),
		MaxSeq:         r.Checker.MaxSeq(),
		FaultsInjected: len(sched),
		NetStats:       net.Stats(),
	}
	after := ^uint32(0)
	seqs := r.Checker.Seqs()
	for i := range seqs {
		if d := seqs[i] - baseline[i]; d < after {
			after = d
		}
	}
	rep.LedgersAfterHeal = after
	for _, a := range r.Advs {
		rep.AdversaryPackets += a.Emitted
	}
	if r.Sim.Tracer != nil {
		rep.Phases = r.Sim.Tracer.Decompose()
	}
	rep.AlertsFired = alertsFired
	rep.AlertsUnresolved = alertsUnresolved
	rep.Bundles = bundles
	if r.ins != nil {
		r.ins.scenarios.With("pass").Inc()
		r.ins.ledgers.Add(float64(rep.MinSeq))
		r.ins.advSent.Add(float64(rep.AdversaryPackets))
	}
	r.log.Info("scenario passed", "report", rep.String())
	return rep, nil
}
