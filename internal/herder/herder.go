package herder

import (
	"fmt"
	"log/slog"
	"time"

	"stellar/internal/bucket"
	"stellar/internal/fba"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/mempool"
	"stellar/internal/metrics"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
)

// Config parameterizes a validator node.
type Config struct {
	// Keys identifies the validator; its NodeID is the key's address.
	Keys stellarcrypto.KeyPair
	// QSet is the validator's quorum slices configuration.
	QSet fba.QuorumSet
	// NetworkID separates independent networks.
	NetworkID stellarcrypto.Hash
	// LedgerInterval is the target close cadence; Stellar runs SCP at
	// 5-second intervals (§1).
	LedgerInterval time.Duration
	// NominationTimeout and BallotTimeout override the SCP timer
	// policies; nil selects the stellar-core-style linear defaults.
	NominationTimeout func(round int) time.Duration
	BallotTimeout     func(counter uint32) time.Duration
	// MaxTxSetSize caps operations per ledger (surge pricing above it).
	MaxTxSetSize int
	// MempoolMaxTxs bounds the pending transaction pool; the cheapest
	// fee-per-op resident is evicted when a better-paying transaction
	// arrives at a full pool (0 = mempool.DefaultMaxTxs).
	MempoolMaxTxs int
	// MempoolMaxPerSource caps pending transactions per source account so
	// one key cannot monopolize the pool (0 = mempool.DefaultMaxPerSource).
	MempoolMaxPerSource int
	// Archive, when set, receives headers, tx sets, and bucket
	// snapshots (§5.4), and holds the node's bucket list below level 0:
	// those levels live as files in its bucket store rather than on the
	// heap. Validators typically do NOT host archives, so it is optional;
	// without one the whole list stays in memory.
	Archive *history.Archive
	// CheckpointInterval is how many ledgers pass between bucket/checkpoint
	// snapshots into the archive (headers and tx sets are archived every
	// ledger regardless, so any checkpoint can replay to tip). 0 = every
	// ledger.
	CheckpointInterval int
	// Governing marks the validator as participating in upgrade
	// governance; DesiredUpgrades are the upgrades it votes for (§5.3).
	Governing       bool
	DesiredUpgrades []Upgrade
	// OverlayCacheSize tunes flood dedup (0 = default).
	OverlayCacheSize int
	// VerifyWorkers sizes the signature-verification worker pool shared
	// by the ledger apply prepass and bucket spill merges (0 = NumCPU,
	// 1 = sequential).
	VerifyWorkers int
	// VerifyCacheSize bounds the signature-verification LRU cache
	// (0 = verify.DefaultCacheSize).
	VerifyCacheSize int
	// Multicast selects the §7.5 structured-multicast extension instead
	// of flooding; requires SetMembers on the overlay after wiring.
	Multicast bool
	// MaxCloseTimeDrift bounds how far in the future a proposed close
	// time may sit and still be fully valid (0 = 10s, stellar-core's
	// clock tolerance). Close times advance at least one second per
	// ledger, so deployments closing ledgers faster than one per second
	// — TCP integration tests, for instance — must widen this or
	// validation starts rejecting values once the schedule outruns the
	// wall clock.
	MaxCloseTimeDrift time.Duration
	// Obs supplies the node's observability bundle (metric registry,
	// protocol trace recorder, logger). nil, or a bundle with nil fields,
	// selects defaults: a private registry and trace ring, silent logs.
	Obs *obs.Obs
}

// Node is one Stellar validator: SCP consensus plus the replicated ledger
// state machine.
type Node struct {
	cfg  Config
	id   fba.NodeID
	addr simnet.Addr
	net  simnet.Env
	ov   *overlay.Overlay
	scp  *scp.Node

	state   *ledger.State
	buckets *bucket.List
	// verifier is the node's verification pipeline: one cache shared by
	// overlay envelope checks, nomination-time CheckValid, and apply, so
	// a signature verified once is free everywhere after.
	verifier *verify.Verifier
	headers  map[uint32]stellarcrypto.Hash // seq → header hash (skiplist source)
	last     *ledger.Header

	// pool is the bounded fee-priority pending set (admit.go holds the
	// admission front door the horizon submit pipeline calls).
	pool *mempool.Pool
	// lastLedgerTxs is the transaction count of the latest close, served
	// by FeeStats as a demand signal.
	lastLedgerTxs int
	// admitTimes stamps each pooled tx at admission so applyLedger can
	// observe the end-to-end submit→applied latency. Entries leave with
	// their tx: applied, evicted, or pruned stale.
	admitTimes map[stellarcrypto.Hash]time.Duration

	// txsets holds the proposed transaction sets of open slots and txsetSeen
	// the ledger at which each was learned, for age-based pruning (a set
	// proposed for a future slot must survive the close of the current one).
	// txsetAsked and txsetServed remember, for as long, which peer was asked
	// for which set and which was served one (txsets.go).
	txsets      map[stellarcrypto.Hash]*ledger.TxSet
	txsetSeen   map[stellarcrypto.Hash]uint32
	txsetAsked  map[txsetPeer]uint32
	txsetServed map[txsetPeer]uint32

	// recent serves peer catch-up (catchup.go).
	recent         map[uint32]recentLedger
	lastCatchupReq time.Duration
	// catchup is the cold-start network catchup state machine
	// (netcatchup.go); nil unless StartNetworkCatchup is running.
	catchup *netCatchup

	// decided buffers externalized values for slots we cannot apply yet
	// (missing tx set or missing predecessor ledgers).
	decided map[uint64]*StellarValue

	timers    map[timerKey]*simnet.Timer
	trigTimer *simnet.Timer
	nextSlot  uint64
	triggered map[uint64]bool

	// Per-slot instrumentation. Metrics is the post-hoc raw-sample store
	// the experiment tables read; obs/ins are the live registry and trace
	// recorder behind horizon's /metrics and /debug endpoints.
	Metrics      *metrics.NodeMetrics
	obs          *obs.Obs
	ins          *instruments
	log          *slog.Logger
	slotStats    map[uint64]*slotStat
	upgradeStats map[UpgradeKind]int64

	// Causal span tracing (span.go). tr is nil when tracing is off; the
	// maps exist only alongside it.
	tr      *obs.Proc
	spans   map[uint64]*slotSpans
	txTrace map[stellarcrypto.Hash]*txTrace

	// peersHealth tracks per-validator liveness evidence from received
	// SCP envelopes (health.go, GET /debug/quorum); health holds the
	// derived quorum_* gauges.
	peersHealth map[fba.NodeID]*peerStatus
	health      *healthInstruments

	// OnLedgerClose, when set, is invoked after each ledger applies.
	OnLedgerClose func(h *ledger.Header, results []ledger.TxResult)
}

type timerKey struct {
	slot uint64
	kind scp.TimerKind
}

type slotStat struct {
	nominateAt     time.Duration // virtual time nomination started
	firstPrepareAt time.Duration
	sawPrepare     bool
	externalizedAt time.Duration // 0 = decided elsewhere (catch-up)
	nomTimeouts    int
	ballotTimeouts int
	emitted        int
}

// New creates a validator attached to a network environment — the
// deterministic simulator or a real transport loop; the herder's behavior
// is identical on either backend. The genesis state must be installed with
// Bootstrap or CatchUp before Start.
func New(net simnet.Env, cfg Config) (*Node, error) {
	if cfg.LedgerInterval <= 0 {
		cfg.LedgerInterval = 5 * time.Second
	}
	if cfg.MaxTxSetSize <= 0 {
		cfg.MaxTxSetSize = ledger.DefaultMaxTxSetSize
	}
	id := fba.NodeIDFromPublicKey(cfg.Keys.Public)
	ob := cfg.Obs.Normalize()
	n := &Node{
		cfg:          cfg,
		obs:          ob,
		ins:          newInstruments(ob.Reg),
		log:          obs.Component(ob.Log, "herder"),
		id:           id,
		addr:         simnet.Addr(id),
		net:          net,
		headers:      make(map[uint32]stellarcrypto.Hash),
		pool:         mempool.New(mempool.Config{MaxTxs: cfg.MempoolMaxTxs, MaxPerSource: cfg.MempoolMaxPerSource}),
		admitTimes:   make(map[stellarcrypto.Hash]time.Duration),
		txsets:       make(map[stellarcrypto.Hash]*ledger.TxSet),
		txsetSeen:    make(map[stellarcrypto.Hash]uint32),
		txsetAsked:   make(map[txsetPeer]uint32),
		txsetServed:  make(map[txsetPeer]uint32),
		recent:       make(map[uint32]recentLedger),
		decided:      make(map[uint64]*StellarValue),
		timers:       make(map[timerKey]*simnet.Timer),
		triggered:    make(map[uint64]bool),
		Metrics:      &metrics.NodeMetrics{},
		slotStats:    make(map[uint64]*slotStat),
		upgradeStats: make(map[UpgradeKind]int64),
		peersHealth:  make(map[fba.NodeID]*peerStatus),
	}
	n.initTracer()
	n.initHealthGauges()
	n.updatePoolGauges() // publish mempool_capacity before any traffic
	n.verifier = verify.New(cfg.VerifyWorkers, cfg.VerifyCacheSize)
	n.verifier.SetObs(ob.Reg)
	n.ov = overlay.New(net, n.addr, cfg.NetworkID, cfg.OverlayCacheSize)
	n.ov.SetObs(ob.Reg, obs.Component(ob.Log, "overlay"))
	if cfg.Multicast {
		n.ov.SetMode(overlay.ModeTree)
	}
	n.ov.OnEnvelope = n.onEnvelope
	n.ov.OnTx = n.onTx
	n.ov.OnTxSetRef = n.onTxSetRef
	n.ov.OnDirect = n.handleDirect
	if n.tr != nil {
		n.ov.OnTraceCtx = n.onPacketTrace
	}
	scpNode, err := scp.NewNode(id, cfg.QSet, cfg.NetworkID, (*driver)(n))
	if err != nil {
		return nil, err
	}
	n.scp = scpNode
	net.AddNode(n.addr, simnet.HandlerFunc(n.ov.HandleMessage))
	return n, nil
}

// ID returns the validator's node ID (its public key address).
func (n *Node) ID() fba.NodeID { return n.id }

// Addr returns the validator's network address.
func (n *Node) Addr() simnet.Addr { return n.addr }

// Overlay exposes the overlay endpoint (topology wiring, counters).
func (n *Node) Overlay() *overlay.Overlay { return n.ov }

// State exposes the ledger state (read-mostly; the horizon layer reads it).
func (n *Node) State() *ledger.State { return n.state }

// LastHeader returns the latest closed ledger header.
func (n *Node) LastHeader() *ledger.Header { return n.last }

// HeaderHash returns the hash of the header closed at seq, if known.
func (n *Node) HeaderHash(seq uint32) (stellarcrypto.Hash, bool) {
	h, ok := n.headers[seq]
	return h, ok
}

// SCP exposes the consensus node for analysis (quorum sets, slots).
func (n *Node) SCP() *scp.Node { return n.scp }

// Verifier exposes the node's verification pipeline (cache statistics).
func (n *Node) Verifier() *verify.Verifier { return n.verifier }

// Bootstrap installs a genesis ledger built from the given state. All
// validators of a network must bootstrap from identical genesis state.
func (n *Node) Bootstrap(genesis *ledger.State, closeTime int64) {
	buckets := bucket.NewList()
	buckets.AddBatch(1, genesis.SnapshotAll())
	genesis.TakeDirtySnapshot() // genesis entries are already in the list
	hdr := ledger.GenesisHeader(genesis, closeTime)
	hdr.SnapshotHash = buckets.Hash()
	n.adoptState(genesis, buckets, hdr)
}

// adoptState makes state and its bucket list, both standing at hdr, the
// node's ledger: metrics, the shared verifier and pool, the durable bucket
// store, and the chain tip. Every path that installs a ledger state
// (genesis, archive restore) goes through here, so a wiring change cannot
// miss one of them.
func (n *Node) adoptState(state *ledger.State, buckets *bucket.List, hdr *ledger.Header) {
	n.state = state
	n.state.SetObs(n.obs.Reg)
	n.state.SetVerifier(n.verifier)
	n.pool.ForgetProofs() // they were made against the state this one replaces
	n.buckets = buckets
	n.buckets.SetPool(n.verifier.Pool)
	n.attachBucketStore()
	n.last = hdr
	n.headers[hdr.LedgerSeq] = hdr.Hash()
	n.nextSlot = uint64(hdr.LedgerSeq) + 1
}

// Start begins the ledger trigger cadence; call after Bootstrap.
func (n *Node) Start() {
	n.scheduleTrigger(n.cfg.LedgerInterval)
}

// scheduleTrigger (re)arms the ledger cadence timer. A single handle with
// cancel-replace semantics keeps exactly one trigger chain alive; it is
// re-armed at every ledger apply (applyLedger anchors it on the closed
// slot's ballot start), which revives the cadence after a crash (the
// simulator consumes timers that fire while a node is down).
func (n *Node) scheduleTrigger(d time.Duration) {
	if n.trigTimer != nil {
		n.trigTimer.Cancel()
	}
	n.trigTimer = n.net.After(n.addr, d, n.triggerNextLedger)
}

// SubmitTx accepts a transaction from a client: it runs the admission
// pipeline (admit.go) and floods on acceptance. Duplicates are a
// succeed-silently no-op for backward compatibility; richer callers
// (the horizon submit handler) use AdmitTx directly for per-outcome
// status codes and fee hints.
func (n *Node) SubmitTx(tx *ledger.Transaction) error {
	res := n.AdmitTx(tx)
	switch res.Code {
	case AdmitAccepted, AdmitDuplicate:
		return nil
	default:
		return res.Err
	}
}

// PendingCount reports the transaction pool size.
func (n *Node) PendingCount() int { return n.pool.Len() }

// PendingMaxSeq reports the highest pending sequence number for a source
// account, so the API layer can chain submissions past the ledger state.
func (n *Node) PendingMaxSeq(source ledger.AccountID) (uint64, bool) {
	return n.pool.MaxSeq(source)
}

// KnownTxSets reports how many transaction sets the node holds (debugging).
func (n *Node) KnownTxSets() int { return len(n.txsets) }

// onTx admits a peer-flooded transaction under the same pool policy as
// local submissions (minus re-flooding, which the overlay handles). A
// rejected flood must close the lifecycle trace the packet hook may have
// opened, or the bounded span map leaks.
func (n *Node) onTx(tx *ledger.Transaction) {
	if n.state == nil {
		return
	}
	h := tx.Seal(n.cfg.NetworkID)
	if len(tx.Operations) == 0 || tx.Fee < n.state.MinFee(tx) {
		n.ins.floodInvalid.Inc()
		n.traceEvictTx(h, "invalid")
		return
	}
	res := n.pool.Add(tx, h)
	n.ins.flooded[res.Outcome].Inc()
	if !res.Outcome.Admitted() {
		if res.Outcome != mempool.Duplicate {
			n.traceEvictTx(h, res.Outcome.String())
		}
		return
	}
	n.notePooled(h, res.Evicted)
}

// notePooled is the bookkeeping every admission shares, local or flooded:
// the admit-time stamp, the victims it displaced, the gauges, and the
// proof. Proving now, in the idle part of the interval, is what lets the
// trigger skip the signature check and the apply hit a warm cache. A
// transaction that fails it stays pooled all the same — this node may be a
// few milliseconds behind on the ledger that created the source account,
// and overlay dedup would never re-deliver a dropped flood — and is simply
// checked in full at each trigger.
func (n *Node) notePooled(h stellarcrypto.Hash, evicted []mempool.EvictedTx) {
	n.admitTimes[h] = n.net.Now()
	n.noteEvicted(evicted)
	n.updatePoolGauges()
	n.pool.Prove(h, n.state, n.cfg.NetworkID)
}

// noteEvicted records fee-pressure evictions: counts them and closes the
// victims' lifecycle traces.
func (n *Node) noteEvicted(victims []mempool.EvictedTx) {
	for _, v := range victims {
		n.ins.evicted.Inc()
		n.traceEvictTx(v.Hash, "fee-pressure")
		delete(n.admitTimes, v.Hash)
	}
}

// updatePoolGauges refreshes the mempool gauges after pool mutations.
func (n *Node) updatePoolGauges() {
	n.ins.poolSize.Set(float64(n.pool.Len()))
	n.ins.poolCap.Set(float64(n.pool.Cap()))
	if fee, ops, ok := n.pool.FloorRate(); ok && n.pool.Full() {
		n.ins.poolFloor.Set(float64(fee) / float64(ops))
	} else {
		n.ins.poolFloor.Set(0)
	}
}

func (n *Node) onEnvelope(env *scp.Envelope) {
	if n.state == nil {
		return
	}
	n.ins.envReceived.With(stmtLabel(env.Statement.Type)).Inc()
	// Health evidence must be taken from every envelope — a peer stuck
	// replaying old slots is exactly what /debug/quorum reports — so this
	// runs before the staleness cut below.
	n.noteEnvelope(env)
	// Ignore slots already closed; stale envelopes cannot help.
	if env.Slot <= uint64(n.last.LedgerSeq) {
		return
	}
	n.trace(obs.Event{Slot: env.Slot, Kind: obs.EvEnvelopeRecv,
		Peer: string(env.Node), Detail: stmtLabel(env.Statement.Type)})
	_ = n.scp.Receive(env)
}

// triggerNextLedger builds a transaction candidate set and starts
// nomination for the next slot (§5.3).
func (n *Node) triggerNextLedger() {
	if n.state == nil {
		return
	}
	slot := uint64(n.last.LedgerSeq) + 1
	if n.triggered[slot] {
		// Consensus for this slot is still running; check back shortly. If
		// it is decided and only the ledgers or the set to apply it are
		// missing, this is what repeats the catch-up request until a peer
		// that can answer has been asked.
		n.maybeRequestCatchup()
		n.scheduleTrigger(n.cfg.LedgerInterval / 5)
		return
	}
	n.triggered[slot] = true
	trigStart := time.Now() // real time: the trigger is real compute

	// Build the candidate transaction set from the pending pool: collect
	// what is valid now (in canonical order, so surge-pricing tie-breaks
	// never depend on map iteration and seeded simulations replay
	// bit-identically), cap it, and seal the set — its hash is computed
	// here once and travels with it into the archive. What floods is its
	// reference: peers hold these transactions already (txsets.go).
	closeTime := n.proposedCloseTime()
	candidates := n.pool.Candidates(n.state, n.cfg.NetworkID, closeTime)
	candidates = ledger.SurgePrice(candidates, n.cfg.MaxTxSetSize)
	ts := &ledger.TxSet{PrevLedgerHash: n.last.Hash(), Txs: candidates}
	tsHash := ts.Seal(n.cfg.NetworkID)
	n.txsets[tsHash] = ts
	n.txsetSeen[tsHash] = n.last.LedgerSeq
	// Open the slot's span tree before the proposal floods so the tx-set
	// broadcast can carry the nomination span's context.
	n.traceTriggerSlot(slot, candidates)
	n.ov.BroadcastTxSetRef(ts.Ref(n.cfg.NetworkID), n.slotCtx(slot))

	sv := &StellarValue{TxSetHash: tsHash, CloseTime: closeTime}
	if n.cfg.Governing {
		sv.Upgrades = append(sv.Upgrades, n.cfg.DesiredUpgrades...)
	}
	stat := n.stat(slot)
	stat.nominateAt = n.net.Now()
	n.trace(obs.Event{Slot: slot, Kind: obs.EvNominationStart,
		Detail: fmt.Sprintf("txs=%d", len(candidates))})
	n.log.Debug("trigger ledger", "slot", slot, "txs", len(candidates), "close_time", closeTime)
	n.scp.Nominate(slot, sv.Encode())
	trigDur := time.Since(trigStart)
	n.ins.trigger.ObserveDuration(trigDur)
	n.traceTriggerDone(slot, trigDur)
	// Schedule the next cadence tick regardless; if consensus is slow the
	// tick re-checks.
	n.scheduleTrigger(n.cfg.LedgerInterval)
}

// proposedCloseTime picks a close time strictly after the last ledger's.
func (n *Node) proposedCloseTime() int64 {
	now := int64(n.net.Now() / time.Second)
	if now <= n.last.CloseTime {
		return n.last.CloseTime + 1
	}
	return now
}

func (n *Node) stat(slot uint64) *slotStat {
	s, ok := n.slotStats[slot]
	if !ok {
		s = &slotStat{}
		n.slotStats[slot] = s
	}
	return s
}

// onExternalized handles a slot decision from SCP.
func (n *Node) onExternalized(slot uint64, raw scp.Value) {
	sv, err := DecodeValue(raw)
	if err != nil {
		// A quorum decided an undecodable value: unrecoverable.
		panic(fmt.Sprintf("herder: externalized garbage for slot %d: %v", slot, err))
	}
	n.decided[slot] = sv
	n.stat(slot).externalizedAt = n.net.Now()
	n.ins.externals.Inc()
	n.traceExternalized(slot)
	n.trace(obs.Event{Slot: slot, Kind: obs.EvExternalize})
	n.log.Debug("externalized", "slot", slot, "close_time", sv.CloseTime)
	// Defer application so it runs outside SCP's call stack.
	n.net.Defer(n.tryApplyDecided)
}

// tryApplyDecided applies buffered decisions in order while possible;
// when blocked on missing predecessors or tx sets it requests peer
// catch-up (catchup.go).
func (n *Node) tryApplyDecided() {
	for {
		if n.state == nil {
			return
		}
		slot := uint64(n.last.LedgerSeq) + 1
		sv, ok := n.decided[slot]
		if !ok {
			if len(n.decided) > 0 {
				n.maybeRequestCatchup()
			}
			return
		}
		ts, ok := n.txsets[sv.TxSetHash]
		if !ok {
			n.maybeRequestCatchup()
			return // wait for the tx set flood or catch-up to arrive
		}
		n.applyLedger(slot, sv, ts)
	}
}

// applyLedger closes one ledger: applies the transaction set and upgrades,
// updates the bucket list, chains the header, and archives (§5.1–§5.4).
func (n *Node) applyLedger(slot uint64, sv *StellarValue, ts *ledger.TxSet) {
	applyStart := time.Now() // real time: ledger update is real compute
	applySpan := n.traceApplyStart(slot)

	env := &ledger.ApplyEnv{LedgerSeq: uint32(slot), CloseTime: sv.CloseTime}
	results, resultsHash := n.state.ApplyTxSet(ts, n.cfg.NetworkID, env)

	// Apply upgrades (§5.3).
	for _, u := range sv.Upgrades {
		n.applyUpgrade(u)
	}

	// Update the bucket list with the entries this ledger changed.
	mergeStart := time.Now()
	changed := n.state.TakeDirtySnapshot()
	n.buckets.AddBatch(uint32(slot), changed)
	applySpan.CompleteChild(obs.SpanBucketMerge, time.Since(mergeStart))

	hdr := ledger.NextHeader(n.last, n.last.Hash())
	hdr.SCPValueHash = stellarcrypto.HashBytes(sv.Encode())
	hdr.TxSetHash = sv.TxSetHash
	hdr.ResultsHash = resultsHash
	hdr.SnapshotHash = n.buckets.Hash()
	hdr.CloseTime = sv.CloseTime
	hdr.BaseFee = n.state.BaseFee
	hdr.BaseReserve = n.state.BaseReserve
	hdr.MaxTxSetSize = n.state.MaxTxSetSize
	hdr.ProtocolVersion = n.state.ProtocolVersion
	hdr.FeePool = n.state.FeePool

	// Metrics: close interval, ledger update time, tx count, per-slot
	// consensus latencies (§7.3's three measured phases). Each sample is
	// written twice: into the raw-sample NodeMetrics the experiment
	// tables consume, and into the registry horizon exposes.
	applyDur := time.Since(applyStart)
	n.Metrics.LedgerUpdate.Add(applyDur)
	n.Metrics.TxPerLedger.Add(len(ts.Txs))
	n.ins.txPerLedger.Observe(float64(len(ts.Txs)))
	n.ins.ledgersClosed.Inc()
	prevClose := n.last.CloseTime
	closeInterval := time.Duration(hdr.CloseTime-prevClose) * time.Second
	n.Metrics.CloseInterval.Add(closeInterval)
	n.ins.closeInterval.ObserveDuration(closeInterval)
	// nextTrigger is when the cadence fires next (re-armed below): one
	// interval after this node started balloting on the slot. The zero
	// value — no local ballot start — lies in the past.
	var nextTrigger time.Duration
	if st, ok := n.slotStats[slot]; ok {
		if st.sawPrepare {
			nextTrigger = st.firstPrepareAt + n.cfg.LedgerInterval
			if st.nominateAt > 0 {
				n.Metrics.Nomination.Add(st.firstPrepareAt - st.nominateAt)
				n.ins.nomination.ObserveDuration(st.firstPrepareAt - st.nominateAt)
			}
			// Balloting ends at externalize, not here: on a wall clock the
			// apply above has already taken its milliseconds. A slot this
			// node did not externalize (catch-up) ends when that arrived.
			decidedAt := st.externalizedAt
			if decidedAt == 0 {
				decidedAt = n.net.Now()
			}
			n.Metrics.Balloting.Add(decidedAt - st.firstPrepareAt)
			n.ins.balloting.ObserveDuration(decidedAt - st.firstPrepareAt)
		}
		n.Metrics.NominationTimeouts.Add(st.nomTimeouts)
		n.Metrics.BallotTimeouts.Add(st.ballotTimeouts)
		n.Metrics.MessagesEmitted.Add(st.emitted)
		delete(n.slotStats, slot)
	}
	// End-to-end submit→applied latency for txs this node admitted itself
	// (the SLO engine's p99 source; floods and local submits both stamp).
	if len(n.admitTimes) > 0 {
		nowV := n.net.Now()
		for _, tx := range ts.Txs {
			th := tx.Hash(n.cfg.NetworkID)
			if at, ok := n.admitTimes[th]; ok {
				n.ins.submitApplied.ObserveDuration(nowV - at)
				delete(n.admitTimes, th)
			}
		}
	}
	n.traceTxsApplied(slot, applySpan, ts, applyDur)
	n.trace(obs.Event{Slot: slot, Kind: obs.EvLedgerApplied,
		Detail: fmt.Sprintf("txs=%d apply=%s", len(ts.Txs), applyDur)})
	n.log.Info("ledger closed", "seq", hdr.LedgerSeq, "txs", len(ts.Txs),
		"apply", applyDur, "close_time", hdr.CloseTime)

	n.last = hdr
	n.headers[hdr.LedgerSeq] = hdr.Hash()
	delete(n.decided, slot)
	delete(n.triggered, slot)

	// Drop applied/stale transactions from the pool (canonical hash order
	// inside PruneStale keeps the trace/event sequence deterministic).
	for _, v := range n.pool.PruneStale(func(tx *ledger.Transaction) bool {
		acct := n.state.Account(tx.Source)
		return acct == nil || tx.SeqNum <= acct.SeqNum
	}) {
		n.traceEvictTx(v.Hash, "stale")
		delete(n.admitTimes, v.Hash)
	}
	n.lastLedgerTxs = len(ts.Txs)
	n.updatePoolGauges()

	n.pruneTxSets()

	// Archive (§5.4), then keep the ledger in the window lagging peers are
	// served from (catchup.go) — with its transaction set only if the
	// archive cannot give it back.
	rc := recentLedger{value: sv.Encode(), txSetHash: sv.TxSetHash, txset: ts}
	if n.cfg.Archive != nil {
		archStart := time.Now()
		if n.archiveLedger(hdr, ts) {
			rc.txset = nil
		}
		applySpan.CompleteChild(obs.SpanArchive, time.Since(archStart))
	}
	n.recent[hdr.LedgerSeq] = rc
	if hdr.LedgerSeq > recentWindow {
		delete(n.recent, hdr.LedgerSeq-recentWindow)
	}
	n.traceApplyEnd(slot, applySpan)

	// Refresh quorum-health gauges at the close boundary (health.go).
	n.updateQuorumGauges()

	// Garbage-collect consensus state for closed slots.
	n.scp.PurgeBelow(slot)

	// Re-arm the ledger cadence one interval after this slot's ballot
	// start — the one event every intact node sees within a message delay
	// of the others — so balloting, apply and archive run inside the
	// interval instead of pushing the next trigger out. A slot closed
	// without a local ballot start (catch-up, externalize learned from
	// peers) triggers at once. Re-arming at every apply also revives the
	// trigger chain after a crash killed its pending timer.
	wait := min(max(nextTrigger-n.net.Now(), 0), n.cfg.LedgerInterval)
	n.ins.intervalSlack.ObserveDuration(wait)
	n.scheduleTrigger(wait)

	if n.OnLedgerClose != nil {
		n.OnLedgerClose(hdr, results)
	}
}

func (n *Node) applyUpgrade(u Upgrade) {
	if ClassifyUpgrade(u, n.cfg.DesiredUpgrades) == UpgradeInvalid {
		return // consensus should never externalize these; be defensive
	}
	n.upgradeStats[u.Kind] = u.Value
	switch u.Kind {
	case UpgradeBaseFee:
		n.state.BaseFee = u.Value
	case UpgradeBaseReserve:
		n.state.BaseReserve = u.Value
	case UpgradeMaxTxSetSize:
		n.state.MaxTxSetSize = int(u.Value)
	case UpgradeProtocolVersion:
		n.state.ProtocolVersion = uint32(u.Value)
	}
}

// attachBucketStore moves the bucket list below level 0 into the archive's
// content-addressed store when the node has one: a node with a disk keeps
// only the ingest level in RAM, and its list and its archive share one copy
// of every deeper bucket. Level and list hashes are byte-identical either way.
func (n *Node) attachBucketStore() {
	if n.cfg.Archive == nil {
		return
	}
	if err := n.buckets.SetStore(n.cfg.Archive.BucketStore()); err != nil {
		panic(fmt.Sprintf("herder: attach bucket store: %v", err))
	}
}

// checkpointInterval normalizes the configured cadence.
func (n *Node) checkpointInterval() uint32 {
	if n.cfg.CheckpointInterval > 0 {
		return uint32(n.cfg.CheckpointInterval)
	}
	return 1
}

// archiveLedger writes the closed ledger to the archive — header and
// transaction set every ledger, buckets and a checkpoint every
// checkpointInterval — and reports whether the transaction set reached the
// disk. A failed write is logged and counted; the node keeps closing ledgers
// (validators need not host archives, §5.4), and any failure ends this
// ledger's archiving, so a checkpoint never names a ledger or a bucket the
// archive does not hold.
func (n *Node) archiveLedger(hdr *ledger.Header, ts *ledger.TxSet) (txSetStored bool) {
	a := n.cfg.Archive
	failed := func(file string, err error) {
		n.ins.archiveErrors.With(file).Inc()
		n.log.Error("archive write failed", "file", file, "seq", hdr.LedgerSeq, "err", err)
	}
	if err := a.PutHeader(hdr); err != nil {
		failed("header", err)
		return false
	}
	if err := a.PutTxSet(hdr.LedgerSeq, ts); err != nil {
		failed("txset", err)
		return false
	}
	if hdr.LedgerSeq%n.checkpointInterval() != 0 {
		return true
	}
	hashes := n.buckets.BucketHashes()
	store := a.BucketStore()
	for i, h := range hashes {
		// Below level 0 the list's buckets are files of this store already
		// (attachBucketStore): only the resident level is ever written here,
		// and nothing is decoded back.
		if h == bucket.EmptyBucket().Hash() || store.Has(h) {
			continue
		}
		b, err := n.buckets.Bucket(i/2, i%2 == 1)
		if err == nil {
			err = a.PutBucket(b)
		}
		if err != nil {
			failed("bucket", err)
			return true // no checkpoint over a missing bucket: the last good one stays latest
		}
	}
	if err := a.PutCheckpoint(&history.Checkpoint{
		LedgerSeq:    hdr.LedgerSeq,
		HeaderHash:   hdr.Hash(),
		BucketHashes: hashes,
	}); err != nil {
		failed("checkpoint", err)
	}
	return true
}

// CatchUp bootstraps or fast-forwards the node from an archive's latest
// checkpoint (§5.4: "The archive lets new nodes bootstrap themselves").
func (n *Node) CatchUp(a *history.Archive) error {
	cp, err := a.LatestCheckpoint()
	if err != nil {
		return fmt.Errorf("herder: catch up: %w", err)
	}
	if n.last != nil && uint32(cp.LedgerSeq) <= n.last.LedgerSeq {
		return nil // already current
	}
	hdr, err := a.GetHeader(cp.LedgerSeq)
	if err != nil {
		return err
	}
	buckets, err := a.RestoreBucketList(cp)
	if err != nil {
		return err
	}
	if buckets.Hash() != hdr.SnapshotHash {
		return fmt.Errorf("herder: archive snapshot hash mismatch")
	}
	state, err := ledger.RestoreState(buckets.AllLive(), hdr)
	if err != nil {
		return err
	}
	n.adoptState(state, buckets, hdr)
	// Any buffered later decisions may now apply.
	n.tryApplyDecided()
	return nil
}

// RebroadcastLatest re-floods the node's newest SCP envelopes for live
// slots — the anti-entropy that lets crashed peers catch up (the §6
// lesson: keep helping peers finish previous ledgers).
func (n *Node) RebroadcastLatest() {
	if n.state == nil {
		return
	}
	for _, idx := range n.scp.SlotIndices() {
		for _, env := range n.scp.Slot(idx).LatestEnvelopes() {
			n.ov.BroadcastEnvelope(env)
		}
	}
	n.rebroadcastTxSetRefs()
}

// UpgradeValue reports the last externalized value for an upgrade kind (0
// if never upgraded), for governance tests.
func (n *Node) UpgradeValue(k UpgradeKind) int64 { return n.upgradeStats[k] }
