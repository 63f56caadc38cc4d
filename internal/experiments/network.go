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
	// ArchiveDirFor, when set, gives validator i a private archive at the
	// returned directory ("" = none for that validator): ArchiveAt for one
	// archiving validator, as in production, or one per validator for the
	// durable-state deployment where every node owns its data dir.
	ArchiveDirFor func(i int) string
	// CheckpointInterval is the archiving validators' checkpoint cadence
	// in ledgers (0 = herder.DefaultCheckpointInterval).
	CheckpointInterval int
	// BallotTimeout overrides the SCP ballot timer policy.
	BallotTimeout func(counter uint32) time.Duration
	// MaxTxSetSize is the genesis ledger's cap on operations per ledger
	// (default 5000, comfortably above the paper's 350 tx/s × 5 s so no
	// transactions are dropped); a §5.3 upgrade vote can change it.
	MaxTxSetSize int
	// Obs, when set, supplies the observability bundle (metric registry,
	// span tracer, logger) for validator i. nil entries (or a nil func)
	// leave the node on its silent defaults.
	Obs func(i int) *obs.Obs
	// Trace attaches one shared causal span tracer, on the simulation's
	// virtual clock, to every validator. The recorded spans are exported
	// through SimNetwork.Tracer (collect.Merge renders it as Chrome trace JSON).
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
}

// activeAccounts is how many accounts generate load: 4× the per-interval
// transaction volume, at least 16 and at most all of them.
func (o *Options) activeAccounts() int {
	return min(max(int(o.TxRate*o.LedgerInterval.Seconds())*4, 16), o.Accounts)
}

// ArchiveAt is an Options.ArchiveDirFor that gives validator 0 the archive
// at dir and the others none.
func ArchiveAt(dir string) func(i int) string {
	return func(i int) string {
		if i == 0 {
			return dir
		}
		return ""
	}
}

// processingCost is the receiver-side CPU per simulated message: our
// measured ed25519 verify plus protocol handling. This is what makes
// consensus latency grow with validator count (Fig 11): more validators
// mean more envelopes queuing at each receiver.
const processingCost = 150 * time.Microsecond

// SimNetwork is a running simulated Stellar network.
type SimNetwork struct {
	Opts      Options
	Net       *simnet.Network
	Nodes     []*herder.Node
	Gen       *loadgen.Generator
	NetworkID stellarcrypto.Hash
	// Archives holds validator i's archive (nil where it has none; see
	// Options.ArchiveDirFor).
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
	// Records holds validator i's close measurements, one per ledger it
	// applied, collected by the OnLedgerClose hook Build installs; a caller
	// that sets its own hook wraps that one. The tables read these through
	// Summary.
	Records [][]herder.CloseStats

	genesis       []ledger.SnapshotEntry // the genesis ledger every validator boots from
	genesisHeader *ledger.Header
}

// Build constructs the network: genesis state with synthetic accounts,
// validators with their quorum sets, overlay topology, and load generator.
func Build(opts Options) (*SimNetwork, error) {
	opts.defaults()
	s := &SimNetwork{Opts: opts}
	s.Net = simnet.New(opts.Seed)
	s.Net.SetLatency(simnet.UniformLatency(opts.LatencyMin, opts.LatencyMax))
	s.Net.SetProcessingCost(processingCost)
	if opts.DropRate > 0 {
		s.Net.SetDropRate(opts.DropRate)
	}
	s.NetworkID = stellarcrypto.HashBytes([]byte(fmt.Sprintf("experiment-network-%d", opts.Seed)))
	if opts.Trace {
		s.Tracer = obs.NewTracer(s.Net.Now)
	}

	// Genesis with synthetic accounts (shared verbatim by all nodes:
	// each gets its own copy via restore to keep states independent).
	genesis, masterKey := herder.GenesisState(s.NetworkID)
	genesis.MaxTxSetSize = opts.MaxTxSetSize
	s.MasterKey = masterKey
	master := ledger.AccountIDFromPublicKey(masterKey.Public)
	accounts, err := loadgen.Populate(genesis, master, masterKey, s.NetworkID, opts.Accounts, opts.activeAccounts())
	if err != nil {
		return nil, err
	}
	s.Accounts = accounts
	s.genesis = genesis.SnapshotAll()
	s.genesisHeader = ledger.GenesisHeader(genesis, 0)

	// Validator identities and quorum sets.
	kps := stellarcrypto.DeterministicKeyPairs(fmt.Sprintf("validator-%d", opts.Seed), opts.Validators)
	ids := make([]fba.NodeID, opts.Validators)
	for i, kp := range kps {
		ids[i] = fba.NodeIDFromPublicKey(kp.Public)
	}

	s.Nodes = make([]*herder.Node, opts.Validators)
	s.Records = make([][]herder.CloseStats, opts.Validators)
	for i := 0; i < opts.Validators; i++ {
		cfg := herder.Config{
			Keys:           kps[i],
			QSet:           opts.QSetFor(i, ids),
			NetworkID:      s.NetworkID,
			LedgerInterval: opts.LedgerInterval,
			BallotTimeout:  opts.BallotTimeout,
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
		}
		if cfg.Archive != nil {
			cfg.CheckpointInterval = opts.CheckpointInterval
		}
		s.Archives = append(s.Archives, cfg.Archive)
		s.Configs = append(s.Configs, cfg)
		node, err := s.NewNode(i)
		if err != nil {
			return nil, err
		}
		state, err := s.GenesisState()
		if err != nil {
			return nil, err
		}
		node.Bootstrap(state, 0)
	}

	s.Gen = loadgen.NewGenerator(s.Net, s.Nodes, accounts, s.NetworkID, opts.TxRate)
	return s, nil
}

// GenesisState returns a fresh copy of the genesis ledger the validators
// booted from, for a node that boots or restores later.
func (s *SimNetwork) GenesisState() (*ledger.State, error) {
	return ledger.RestoreState(s.genesis, s.genesisHeader)
}

// NewNode builds validator i from Configs[i] into Nodes[i], at genesis or
// in place of a crashed one (herder.New takes over the dead handler's
// address): its OnLedgerClose hook appends to Records[i], and it is linked
// both ways with every other built node. The caller boots it.
func (s *SimNetwork) NewNode(i int) (*herder.Node, error) {
	node, err := herder.New(s.Net, s.Configs[i])
	if err != nil {
		return nil, err
	}
	node.OnLedgerClose = func(_ *ledger.Header, _ []ledger.TxResult, cs herder.CloseStats) {
		s.Records[i] = append(s.Records[i], cs)
	}
	s.Nodes[i] = node
	for j, peer := range s.Nodes {
		if peer == nil || j == i {
			continue
		}
		node.Overlay().Connect(peer.Addr())
		peer.Overlay().AddPeer(node.Addr())
	}
	return node, nil
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
