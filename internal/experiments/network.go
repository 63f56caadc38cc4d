// Package experiments reproduces the paper's evaluation (§7): it builds
// simulated Stellar networks out of full validator nodes (SCP + herder +
// ledger + overlay on the discrete-event simulator) and runs the
// controlled experiments behind every table and figure, printing the same
// rows and series the paper reports.
package experiments

import (
	"fmt"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/loadgen"
	"stellar/internal/metrics"
	"stellar/internal/obs"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Options configures a simulated network. Zero values select the paper's
// §7.3 controlled-experiment defaults.
type Options struct {
	// Validators is the number of full validator nodes (default 4).
	Validators int
	// Accounts is the total synthetic account count (default 100,000).
	Accounts int
	// ActiveAccounts is how many accounts generate load (default scales
	// with TxRate: 4× the per-interval transaction volume).
	ActiveAccounts int
	// TxRate is the offered load in transactions per second (default 100).
	TxRate float64
	// NoLoad disables the load generator entirely (examples that submit
	// transactions by hand).
	NoLoad bool
	// LedgerInterval is the close cadence (default 5 s, §1).
	LedgerInterval time.Duration
	// LatencyMin/Max bound one-way link latency (defaults 2–10 ms,
	// same-region EC2 as in §7.3).
	LatencyMin, LatencyMax time.Duration
	// DropRate injects message loss.
	DropRate float64
	// Seed makes runs reproducible.
	Seed int64
	// QSetFor overrides quorum sets; default is the §7.3 worst case:
	// every validator knows every other, slices are any simple majority.
	QSetFor func(i int, all []fba.NodeID) fba.QuorumSet
	// SparseTopology connects each validator to at most K peers instead
	// of all-to-all (0 = full mesh).
	SparseTopology int
	// ArchiveDir, when non-empty, attaches a shared history archive.
	ArchiveDir string
	// ArchiveDirFor, when set, gives validator i a PRIVATE archive at the
	// returned directory ("" = none for that validator) — the durable-state
	// deployment where every node owns its data dir. Overrides ArchiveDir.
	ArchiveDirFor func(i int) string
	// CheckpointInterval is the archiving validators' checkpoint cadence
	// in ledgers (0 = every ledger).
	CheckpointInterval int
	// NominationTimeout/BallotTimeout override SCP timer policies.
	NominationTimeout func(round int) time.Duration
	BallotTimeout     func(counter uint32) time.Duration
	// OverlayCacheSize tunes flood dedup (ablation).
	OverlayCacheSize int
	// VerifyWorkers sizes each validator's signature-verification pool
	// (0 = NumCPU, 1 = sequential).
	VerifyWorkers int
	// VerifyCacheSize bounds each validator's verification cache
	// (0 = verify.DefaultCacheSize).
	VerifyCacheSize int
	// MaxTxSetSize caps operations per ledger (default 5000, comfortably
	// above the paper's 350 tx/s × 5 s so no transactions are dropped).
	MaxTxSetSize int
	// Multicast enables the §7.5 structured-multicast extension in place
	// of flooding (the overlay comparison experiment).
	Multicast bool
	// ProcessingCost is the receiver-side CPU per message (default 150µs,
	// our measured ed25519 verify plus protocol handling). This is what
	// makes consensus latency grow with validator count (Fig 11): more
	// validators mean more envelopes queuing at each receiver.
	ProcessingCost time.Duration
	// Obs, when set, supplies the observability bundle (metric registry,
	// trace ring, logger) for validator i. nil entries (or a nil func)
	// leave the node on its silent defaults.
	Obs func(i int) *obs.Obs
	// Trace attaches one shared causal span tracer, on the simulation's
	// virtual clock, to every validator. The recorded spans are exported
	// through SimNetwork.Tracer (Chrome trace JSON, latency decomposition).
	Trace bool
}

func (o *Options) defaults() {
	if o.Validators == 0 {
		o.Validators = 4
	}
	if o.Accounts == 0 {
		o.Accounts = 100_000
	}
	if o.NoLoad {
		o.TxRate = 0
	} else if o.TxRate == 0 {
		o.TxRate = 100
	}
	if o.LedgerInterval == 0 {
		o.LedgerInterval = 5 * time.Second
	}
	if o.LatencyMin == 0 {
		o.LatencyMin = 2 * time.Millisecond
	}
	if o.LatencyMax == 0 {
		o.LatencyMax = 10 * time.Millisecond
	}
	if o.ActiveAccounts == 0 {
		perLedger := int(o.TxRate*o.LedgerInterval.Seconds()) * 4
		if perLedger < 16 {
			perLedger = 16
		}
		if perLedger > o.Accounts {
			perLedger = o.Accounts
		}
		o.ActiveAccounts = perLedger
	}
	if o.QSetFor == nil {
		o.QSetFor = func(i int, all []fba.NodeID) fba.QuorumSet {
			return fba.Majority(all...)
		}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.MaxTxSetSize == 0 {
		o.MaxTxSetSize = 5000
	}
	if o.ProcessingCost == 0 {
		o.ProcessingCost = 150 * time.Microsecond
	}
}

// SimNetwork is a running simulated Stellar network.
type SimNetwork struct {
	Opts      Options
	Net       *simnet.Network
	Nodes     []*herder.Node
	Gen       *loadgen.Generator
	NetworkID stellarcrypto.Hash
	Archive   *history.Archive
	// Archives holds validator i's private archive when ArchiveDirFor was
	// set (nil entries where the validator has none).
	Archives []*history.Archive
	// Configs keeps each validator's herder configuration so a chaos
	// harness can rebuild a node with the same identity after a crash
	// that loses its in-memory state.
	Configs   []herder.Config
	Accounts  []loadgen.Account
	MasterKey stellarcrypto.KeyPair
	// Tracer is the shared span tracer when Options.Trace is set, nil
	// otherwise.
	Tracer *obs.Tracer
}

// Build constructs the network: genesis state with synthetic accounts,
// validators with their quorum sets, overlay topology, and load generator.
func Build(opts Options) (*SimNetwork, error) {
	opts.defaults()
	s := &SimNetwork{Opts: opts}
	s.Net = simnet.New(opts.Seed)
	s.Net.SetLatency(simnet.UniformLatency(opts.LatencyMin, opts.LatencyMax))
	s.Net.SetProcessingCost(opts.ProcessingCost)
	if opts.DropRate > 0 {
		s.Net.SetDropRate(opts.DropRate)
	}
	s.NetworkID = stellarcrypto.HashBytes([]byte(fmt.Sprintf("experiment-network-%d", opts.Seed)))
	if opts.Trace {
		s.Tracer = obs.NewTracer(s.Net.Now)
	}

	var arch *history.Archive
	if opts.ArchiveDir != "" {
		var err error
		arch, err = history.Open(opts.ArchiveDir)
		if err != nil {
			return nil, err
		}
		s.Archive = arch
	}

	// Genesis with synthetic accounts (shared verbatim by all nodes:
	// each gets its own copy via restore to keep states independent).
	genesis, masterKey := herder.GenesisState(s.NetworkID)
	s.MasterKey = masterKey
	master := ledger.AccountIDFromPublicKey(masterKey.Public)
	accounts, err := loadgen.Populate(genesis, master, masterKey, s.NetworkID, opts.Accounts, opts.ActiveAccounts)
	if err != nil {
		return nil, err
	}
	s.Accounts = accounts
	genesisSnapshot := genesis.SnapshotAll()
	genesisHeader := ledger.GenesisHeader(genesis, 0)

	// Validator identities and quorum sets.
	kps := stellarcrypto.DeterministicKeyPairs(fmt.Sprintf("validator-%d", opts.Seed), opts.Validators)
	ids := make([]fba.NodeID, opts.Validators)
	for i, kp := range kps {
		ids[i] = fba.NodeIDFromPublicKey(kp.Public)
	}

	for i := 0; i < opts.Validators; i++ {
		cfg := herder.Config{
			Keys:              kps[i],
			QSet:              opts.QSetFor(i, ids),
			NetworkID:         s.NetworkID,
			LedgerInterval:    opts.LedgerInterval,
			NominationTimeout: opts.NominationTimeout,
			BallotTimeout:     opts.BallotTimeout,
			OverlayCacheSize:  opts.OverlayCacheSize,
			VerifyWorkers:     opts.VerifyWorkers,
			VerifyCacheSize:   opts.VerifyCacheSize,
			MaxTxSetSize:      opts.MaxTxSetSize,
			Multicast:         opts.Multicast,
		}
		if opts.Obs != nil {
			cfg.Obs = opts.Obs(i)
		}
		if s.Tracer != nil {
			if cfg.Obs == nil {
				cfg.Obs = &obs.Obs{}
			}
			cfg.Obs.Tracer = s.Tracer
		}
		if opts.ArchiveDirFor != nil {
			if dir := opts.ArchiveDirFor(i); dir != "" {
				na, err := history.Open(dir)
				if err != nil {
					return nil, err
				}
				cfg.Archive = na
			}
		} else if arch != nil && i == 0 {
			cfg.Archive = arch // one archiving validator, as in production
		}
		if cfg.Archive != nil {
			cfg.CheckpointInterval = opts.CheckpointInterval
		}
		node, err := herder.New(s.Net, cfg)
		if err != nil {
			return nil, err
		}
		state, err := ledger.RestoreState(genesisSnapshot, genesisHeader)
		if err != nil {
			return nil, err
		}
		node.Bootstrap(state, 0)
		s.Nodes = append(s.Nodes, node)
		s.Archives = append(s.Archives, cfg.Archive)
		s.Configs = append(s.Configs, cfg)
	}

	// Topology.
	for i, a := range s.Nodes {
		for j, b := range s.Nodes {
			if i == j {
				continue
			}
			if opts.SparseTopology > 0 {
				// Ring plus skip links up to K peers.
				d := (j - i + opts.Validators) % opts.Validators
				if d > opts.SparseTopology/2 && opts.Validators-d > opts.SparseTopology/2 {
					continue
				}
			}
			a.Overlay().Connect(b.Addr())
		}
	}

	if opts.Multicast {
		addrs := make([]simnet.Addr, len(s.Nodes))
		for i, n := range s.Nodes {
			addrs[i] = n.Addr()
		}
		for _, n := range s.Nodes {
			n.Overlay().SetMembers(addrs...)
		}
	}

	s.Gen = loadgen.NewGenerator(s.Net, s.Nodes, accounts, s.NetworkID, opts.TxRate)
	return s, nil
}

// Start begins the ledger cadence and the load generator.
func (s *SimNetwork) Start() {
	for _, n := range s.Nodes {
		n.Start()
	}
	s.Gen.Start()
}

// Run advances virtual time by d.
func (s *SimNetwork) Run(d time.Duration) { s.Net.RunFor(d) }

// Stop halts load generation.
func (s *SimNetwork) Stop() { s.Gen.Stop() }

// LedgerSeqs returns every node's latest closed ledger.
func (s *SimNetwork) LedgerSeqs() []uint32 {
	out := make([]uint32, len(s.Nodes))
	for i, n := range s.Nodes {
		out[i] = n.LastHeader().LedgerSeq
	}
	return out
}

// CheckAgreement verifies all nodes that closed a given ledger agree on
// its header hash — the global safety condition.
func (s *SimNetwork) CheckAgreement() error {
	maxSeq := uint32(0)
	for _, n := range s.Nodes {
		if n.LastHeader().LedgerSeq > maxSeq {
			maxSeq = n.LastHeader().LedgerSeq
		}
	}
	for seq := uint32(2); seq <= maxSeq; seq++ {
		var ref *stellarcrypto.Hash
		for _, n := range s.Nodes {
			h, ok := n.HeaderHash(seq)
			if !ok {
				continue
			}
			if ref == nil {
				ref = &h
			} else if *ref != h {
				return fmt.Errorf("experiments: divergence at ledger %d", seq)
			}
		}
	}
	return nil
}

// MergedMetrics combines all nodes' metrics into one view.
func (s *SimNetwork) MergedMetrics() *metrics.NodeMetrics {
	out := &metrics.NodeMetrics{}
	for _, n := range s.Nodes {
		m := n.Metrics
		for _, v := range m.Nomination.Samples() {
			out.Nomination.Add(v)
		}
		for _, v := range m.Balloting.Samples() {
			out.Balloting.Add(v)
		}
		for _, v := range m.LedgerUpdate.Samples() {
			out.LedgerUpdate.Add(v)
		}
		for _, v := range m.CloseInterval.Samples() {
			out.CloseInterval.Add(v)
		}
		for _, v := range m.TxPerLedger.Samples() {
			out.TxPerLedger.Add(v)
		}
		for _, v := range m.NominationTimeouts.Samples() {
			out.NominationTimeouts.Add(v)
		}
		for _, v := range m.BallotTimeouts.Samples() {
			out.BallotTimeouts.Add(v)
		}
		for _, v := range m.MessagesEmitted.Samples() {
			out.MessagesEmitted.Add(v)
		}
	}
	return out
}
