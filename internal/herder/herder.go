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
	// BallotTimeout overrides the SCP ballot timer policy; nil selects
	// the stellar-core-style linear default.
	BallotTimeout func(counter uint32) time.Duration
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
	// ledger regardless, so any checkpoint can replay to tip). 0 =
	// DefaultCheckpointInterval.
	CheckpointInterval int
	// Governing marks the validator as participating in upgrade
	// governance; DesiredUpgrades are the upgrades it votes for (§5.3).
	Governing       bool
	DesiredUpgrades []Upgrade
	// Obs supplies the node's observability bundle (metric registry,
	// logger, span tracer). nil, or a bundle with nil fields, selects
	// defaults: a private registry, silent logs, no tracing.
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
	// admission front door the horizon submit pipeline calls). pooled is its
	// Get: what a flooded reference is resolved against and a set that
	// arrived as a body is interned against (txsets.go).
	pool   *mempool.Pool
	pooled func(stellarcrypto.Hash) *ledger.Transaction
	// lastLedgerTxs is the transaction count of the latest close, served
	// by FeeStats as a demand signal.
	lastLedgerTxs int

	// txsets holds the proposed transaction sets of open slots only, and
	// txsetSeen the ledger at which each was learned, for the age rule that
	// keeps a set proposed on a ledger not reached yet. txsetAsked and
	// txsetServed remember which peer was asked for which set and which was
	// served one, and txsetApplied which set each of the last few ledgers
	// applied, by which a late request is still answered (txsets.go).
	txsets       map[stellarcrypto.Hash]*ledger.TxSet
	txsetSeen    map[stellarcrypto.Hash]uint32
	txsetAsked   map[txsetPeer]uint32
	txsetServed  map[txsetPeer]uint32
	txsetApplied map[stellarcrypto.Hash]uint32
	// setVerdicts holds ValidateValue's judgments of sets on the tip
	// (txSetValid, driver.go).
	setVerdicts map[txsetJudged]bool

	// recent holds the header and transaction set of each of the last
	// recentWindow ledgers that the archive does not: every one on a node
	// without an archive, else those whose archive write failed. Lagging
	// peers are served from it and the archive (catchup.go).
	recent map[uint32]overlay.CatchupItem
	// fetch is the catch-up fetcher: the one outstanding request for
	// ledgers or archive files (netcatchup.go).
	fetch fetcher

	// decided buffers the values this node's SCP externalized for slots it
	// cannot apply yet (missing tx set or missing predecessor ledgers).
	// Only onExternalized writes it.
	decided map[uint64]*StellarValue

	timers    map[timerKey]*simnet.Timer
	trigTimer *simnet.Timer
	triggered map[uint64]bool

	// Instrumentation: obs/ins are the live registry and logger behind
	// horizon's /metrics; slots is the per-slot record of the last
	// recentWindow slots (slots.go), written through record, that
	// CloseStats, /debug/slots and the crash bundle read.
	obs   *obs.Obs
	ins   *instruments
	log   *slog.Logger
	slots slotLog

	// Causal span tracing (span.go). tr is nil when tracing is off; the
	// maps exist only alongside it.
	tr      *obs.Proc
	spans   map[uint64]*slotSpans
	txTrace map[stellarcrypto.Hash]*txTrace

	// peersHealth tracks per-validator liveness evidence from received
	// SCP envelopes (health.go, GET /debug/quorum). Its keys are the
	// quorum set's members other than self, fixed in New; a member not yet
	// heard from maps to nil.
	peersHealth map[fba.NodeID]*peerStatus

	// OnLedgerClose, when set, is invoked after each ledger applies, with
	// what the node measured of the close. The node keeps no such records
	// itself.
	OnLedgerClose func(h *ledger.Header, results []ledger.TxResult, stats CloseStats)
}

type timerKey struct {
	slot uint64
	kind scp.TimerKind
}

// New creates a validator attached to a network environment — the
// deterministic simulator or a real transport loop; the herder's behavior
// is identical on either backend. The genesis state must be installed with
// Bootstrap or CatchUp before Start.
func New(net simnet.Env, cfg Config) (*Node, error) {
	if cfg.LedgerInterval <= 0 {
		cfg.LedgerInterval = 5 * time.Second
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
		txsets:       make(map[stellarcrypto.Hash]*ledger.TxSet),
		txsetSeen:    make(map[stellarcrypto.Hash]uint32),
		txsetAsked:   make(map[txsetPeer]uint32),
		txsetServed:  make(map[txsetPeer]uint32),
		txsetApplied: make(map[stellarcrypto.Hash]uint32),
		setVerdicts:  make(map[txsetJudged]bool),
		recent:       make(map[uint32]overlay.CatchupItem),
		decided:      make(map[uint64]*StellarValue),
		timers:       make(map[timerKey]*simnet.Timer),
		triggered:    make(map[uint64]bool),
		peersHealth:  make(map[fba.NodeID]*peerStatus),
	}
	for v := range cfg.QSet.Members() {
		if v != id {
			n.peersHealth[v] = nil
		}
	}
	n.pooled = n.pool.Get
	n.initTracer()
	n.updatePoolGauges()          // publish mempool_capacity before any traffic
	n.verifier = verify.New(0, 0) // NumCPU workers, DefaultCacheSize entries
	n.verifier.SetObs(ob.Reg)
	n.ov = overlay.New(net, n.addr)
	n.ov.SetObs(ob.Reg, obs.Component(ob.Log, "overlay"))
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
	net.AddNode(n.addr, n.ov)
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

// Archive returns the history archive the node writes its closed ledgers
// to, or nil when it keeps none. It is fixed at New, so any goroutine may
// read it; the archive's files are written whole by rename, so any
// goroutine may read those too.
func (n *Node) Archive() *history.Archive { return n.cfg.Archive }

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
// store, the chain tip, and the pool's entries the new tip made stale.
// Every path that installs a ledger state (genesis, checkpoint restore, a
// refused replay's rewind) goes through here, so a wiring change cannot
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
	n.pruneStale()
	n.updatePoolGauges()
}

// pruneStale drops the pooled transactions the tip has made useless:
// applied or superseded, from a source that is gone, or expired at the
// tip's close time. Candidates stops a source's chain at a stale head, so
// every path that moves the tip prunes (canonical hash order inside
// PruneStale keeps the trace/event sequence deterministic).
func (n *Node) pruneStale() {
	for _, v := range n.pool.PruneStale(func(tx *ledger.Transaction) bool {
		acct := n.state.Account(tx.Source)
		return acct == nil || tx.SeqNum <= acct.SeqNum || expired(tx, n.last.CloseTime)
	}) {
		n.traceEvictTx(v.Hash, "stale")
	}
}

// adoptBuckets makes the ledger a bucket list holds at hdr the node's
// ledger, its state rebuilt from the list's entries.
func (n *Node) adoptBuckets(buckets *bucket.List, hdr *ledger.Header) error {
	state, err := ledger.RestoreState(buckets.AllLive(), hdr)
	if err != nil {
		return err
	}
	n.adoptState(state, buckets, hdr)
	return nil
}

// Start begins the ledger trigger cadence; call after Bootstrap, a restore
// or a catch-up. It arms the trigger by the rule every close does
// (triggerWait): a tip this node did not ballot on — genesis, a restored or
// fetched ledger — triggers at once.
func (n *Node) Start() {
	n.scheduleTrigger(n.triggerWait())
}

// triggerWait is the ledger cadence, the one rule by which Start and every
// close arm the trigger: the next ledger triggers one interval after this
// node first prepared on its tip — the one event every intact node sees
// within a message delay of the others — clamped to [0, interval] from now,
// so balloting, apply and archive run inside the interval instead of
// pushing the next trigger out. A tip without a local ballot start
// (genesis, a restore, a catch-up, an externalize learned from peers)
// triggers at once, as stellar-core's herder does at boot.
func (n *Node) triggerWait() time.Duration {
	rec, ok := n.SlotRecord(uint64(n.last.LedgerSeq))
	if !ok || !rec.Prepared() {
		return 0
	}
	return min(max(rec.FirstPrepare.At+n.cfg.LedgerInterval-n.net.Now(), 0), n.cfg.LedgerInterval)
}

// scheduleTrigger (re)arms the ledger cadence timer. A single handle with
// cancel-replace semantics keeps exactly one trigger chain alive; it is
// re-armed at every ledger apply (by triggerWait), which revives the
// cadence after a crash (the simulator consumes timers that fire while a
// node is down).
func (n *Node) scheduleTrigger(d time.Duration) {
	if n.trigTimer != nil {
		n.trigTimer.Cancel()
	}
	n.trigTimer = n.net.After(n.addr, d, n.triggerNextLedger)
}

// PendingCount reports the transaction pool size.
func (n *Node) PendingCount() int { return n.pool.Len() }

// notePooled is the bookkeeping every accepted admission shares, local or
// flooded: the victims it displaced, the gauges, and the proof from auth,
// the transaction's CheckAuth verdict against the current state. Taking it
// at admission, in the idle part of the interval, is what lets the trigger
// skip the signature check and the apply hit a warm cache. A flood pooled
// with a failing verdict (it names an account this node cannot see yet)
// has no proof and is checked in full at each trigger.
func (n *Node) notePooled(h stellarcrypto.Hash, evicted []mempool.EvictedTx, auth error) {
	n.noteEvicted(evicted)
	n.updatePoolGauges()
	n.pool.Prove(h, n.state, auth)
}

// noteEvicted records fee-pressure evictions: counts them and closes the
// victims' lifecycle traces.
func (n *Node) noteEvicted(victims []mempool.EvictedTx) {
	for _, v := range victims {
		n.ins.evicted.Inc()
		n.traceEvictTx(v.Hash, "fee-pressure")
	}
}

// updatePoolGauges refreshes the mempool gauges after pool mutations.
func (n *Node) updatePoolGauges() {
	n.ins.poolSize.Set(float64(n.pool.Len()))
	n.ins.poolCap.Set(float64(n.pool.Cap()))
}

// onEnvelope hands a flooded envelope to SCP and reports whether it was
// refused: malformed, or not signed by the node it names. An envelope for a
// slot already closed cannot help consensus, but a late genuine copy still
// helps a lagging peer and tells this node about the sender's health
// (health.go); its signature is checked through the shared cache, and a
// forgery is refused so that the overlay does not forward it.
func (n *Node) onEnvelope(env *scp.Envelope) (refused bool) {
	if n.state == nil {
		return false
	}
	n.ins.envReceived.With(stmtLabel(env.Statement.Type)).Inc()
	if env.Slot <= uint64(n.last.LedgerSeq) {
		if !(*driver)(n).VerifyEnvelope(env) {
			return true
		}
		n.noteClosedSlotEnvelope(env)
		return false
	}
	// Only an envelope SCP accepted (well-formed, signed) counts.
	if n.scp.Receive(env) != nil {
		return true
	}
	n.noteEnvelope(env)
	n.record(env.Slot, func(r *SlotRecord) { r.EnvelopesReceived++ })
	return false
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
		// missing, this makes sure a catch-up request is outstanding.
		n.maybeRequestCatchup()
		n.scheduleTrigger(n.cfg.LedgerInterval / 5)
		return
	}
	n.triggered[slot] = true
	trigStart := time.Now() // real time: the trigger is real compute

	// Build the candidate transaction set from the pending pool: collect
	// what is valid now (in canonical order, so surge-pricing tie-breaks
	// never depend on map iteration and seeded simulations replay
	// bit-identically), cap it at the ledger's MaxTxSetSize (a voted §5.3
	// upgrade changes it), and seal the set — its hash is computed
	// here once and travels with it into the archive. What floods is its
	// reference: peers hold these transactions already (txsets.go).
	closeTime := n.proposedCloseTime()
	candidates := n.pool.Candidates(n.state, n.cfg.NetworkID, closeTime)
	candidates = ledger.SurgePrice(candidates, n.state.MaxTxSetSize)
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
	now := n.net.Now()
	n.record(slot, func(r *SlotRecord) { r.NominationStart = stamp(now) })
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

// onExternalized handles a slot decision from SCP.
func (n *Node) onExternalized(slot uint64, raw scp.Value) {
	sv, err := DecodeValue(raw)
	if err != nil {
		// A quorum decided an undecodable value: unrecoverable.
		panic(fmt.Sprintf("herder: externalized garbage for slot %d: %v", slot, err))
	}
	n.decided[slot] = sv
	now := n.net.Now()
	n.record(slot, func(r *SlotRecord) { r.Externalized = stamp(now) })
	n.ins.externals.Inc()
	n.traceExternalized(slot)
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
		_ = n.applyLedger(ts, sv, nil) // no header to reproduce: nothing refuses it
	}
}

// applyLedger closes the next ledger on ts: one this node's SCP decided
// (sv), one it installs without having closed it live (want, the header it
// must reproduce, from ReplayLedger), or both. It applies the set and the
// parameter changes — sv's upgrades, else want's parameters — seals the
// header, and finishes the close: it measures it, prunes the pool, archives
// the ledger and keeps it servable, re-arms the ledger cadence, and last
// drops the proposal sets of the slots it closed (§5.1–§5.4). A computed header that is not want is
// refused, and the node is put back at its tip.
func (n *Node) applyLedger(ts *ledger.TxSet, sv *StellarValue, want *ledger.Header) error {
	slot := uint64(n.last.LedgerSeq) + 1
	applyStart := time.Now() // real time: ledger update is real compute
	applySpan := n.traceApplyStart(slot)
	before := n.buckets.Clone() // what a refused ledger rewinds to
	var valueHash, txSetHash stellarcrypto.Hash
	var closeTime int64
	if sv != nil {
		valueHash, txSetHash, closeTime = stellarcrypto.HashBytes(sv.Encode()), sv.TxSetHash, sv.CloseTime
	} else {
		valueHash, txSetHash, closeTime = want.SCPValueHash, want.TxSetHash, want.CloseTime
	}
	env := &ledger.ApplyEnv{LedgerSeq: uint32(slot), CloseTime: closeTime}
	results, resultsHash := n.state.ApplyTxSet(ts, n.cfg.NetworkID, env)
	if sv != nil {
		for _, u := range sv.Upgrades {
			n.applyUpgrade(u)
		}
	} else {
		n.state.BaseFee = want.BaseFee
		n.state.BaseReserve = want.BaseReserve
		n.state.MaxTxSetSize = want.MaxTxSetSize
		n.state.ProtocolVersion = want.ProtocolVersion
	}

	// Update the bucket list with the entries this ledger changed, and chain
	// the header.
	mergeStart := time.Now()
	hdr := ledger.NextHeader(n.last, n.last.Hash())
	n.buckets.AddBatch(hdr.LedgerSeq, n.state.TakeDirtySnapshot())
	hdr.SCPValueHash = valueHash
	hdr.TxSetHash = txSetHash
	hdr.ResultsHash = resultsHash
	hdr.SnapshotHash = n.buckets.Hash()
	hdr.CloseTime = closeTime
	hdr.BaseFee = n.state.BaseFee
	hdr.BaseReserve = n.state.BaseReserve
	hdr.MaxTxSetSize = n.state.MaxTxSetSize
	hdr.ProtocolVersion = n.state.ProtocolVersion
	hdr.FeePool = n.state.FeePool
	applySpan.CompleteChild(obs.SpanBucketMerge, time.Since(mergeStart))
	if want != nil && hdr.Hash() != want.Hash() {
		applySpan.End()
		// The bucket list as it stood, and the ledger state rebuilt from it
		// as a checkpoint restore builds it.
		if err := n.adoptBuckets(before, n.last); err != nil {
			panic(fmt.Sprintf("herder: rewinding to ledger %d: %v", n.last.LedgerSeq, err))
		}
		return fmt.Errorf("herder: ledger %d: computed header %s, given %s", slot, hdr.Hash().Hex(), want.Hash().Hex())
	}

	// Measure the close once (§7.3's three phases, close rate, tx count,
	// timeouts and messages) from the slot's record; the registry and
	// OnLedgerClose both read cs.
	cs := CloseStats{
		Seq:           hdr.LedgerSeq,
		Txs:           len(ts.Txs),
		Apply:         time.Since(applyStart),
		CloseInterval: time.Duration(hdr.CloseTime-n.last.CloseTime) * time.Second,
	}
	now := n.net.Now()
	var rec SlotRecord
	n.record(slot, func(r *SlotRecord) { r.Applied = stamp(now); rec = *r })
	if rec.InSCP() {
		cs.InSCP = true
		cs.NominationTimeouts, cs.BallotTimeouts, cs.Emitted = rec.NominationTimeouts, rec.BallotTimeouts, rec.EnvelopesEmitted
		if rec.Prepared() {
			if rec.NominationStart.Seen {
				cs.Nominated, cs.Nomination = true, rec.FirstPrepare.Since(rec.NominationStart)
			}
			// Balloting ends at externalize, not here: on a wall clock the
			// apply above has already taken its milliseconds. A slot this
			// node did not externalize (catch-up) ends when that arrived.
			decidedAt := rec.Externalized
			if !decidedAt.Seen {
				decidedAt = stamp(now)
			}
			cs.Balloted, cs.Balloting = true, decidedAt.Since(rec.FirstPrepare)
		}
	}
	n.ins.observeClose(cs)
	// End-to-end submit→applied latency for txs this node admitted itself
	// (the SLO engine's p99 source; floods and local submits both stamp),
	// taken before PruneStale below drops them from the pool; one that
	// stays pooled is not observed again.
	for _, tx := range ts.Txs {
		if at, ok := n.pool.TakeAdmittedAt(tx.Hash(n.cfg.NetworkID)); ok {
			n.ins.submitApplied.ObserveDuration(now - at)
		}
	}
	n.traceTxsApplied(slot, applySpan, ts, cs.Apply)
	n.log.Info("ledger closed", "seq", hdr.LedgerSeq, "txs", len(ts.Txs),
		"apply", cs.Apply, "close_time", hdr.CloseTime)

	n.last = hdr
	n.headers[hdr.LedgerSeq] = hdr.Hash()
	delete(n.decided, slot)
	delete(n.triggered, slot)

	n.pruneStale()
	n.lastLedgerTxs = len(ts.Txs)
	n.updatePoolGauges()

	// Archive (§5.4); a ledger the archive does not then hold stays in the
	// window lagging peers are served from (catchup.go).
	archived := false
	if n.cfg.Archive != nil {
		archStart := time.Now()
		archived = n.archiveLedger(hdr, ts)
		applySpan.CompleteChild(obs.SpanArchive, time.Since(archStart))
	}
	if !archived {
		n.recent[hdr.LedgerSeq] = overlay.CatchupItem{Header: hdr, TxSet: ts}
	}
	n.txsetApplied[txSetHash] = hdr.LedgerSeq
	if hdr.LedgerSeq > recentWindow {
		delete(n.recent, hdr.LedgerSeq-recentWindow)
	}
	n.traceApplyEnd(slot, applySpan)

	// Refresh the quorum_available gauge at the close boundary (health.go).
	n.RefreshQuorumHealth()

	// Garbage-collect consensus state for closed slots.
	n.scp.PurgeBelow(slot)

	// Re-arm the ledger cadence on the ledger just closed (triggerWait).
	// Re-arming at every apply also revives the trigger chain after a crash
	// killed its pending timer.
	wait := n.triggerWait()
	n.ins.intervalSlack.ObserveDuration(wait)
	n.scheduleTrigger(wait)

	if n.OnLedgerClose != nil {
		n.OnLedgerClose(hdr, results, cs)
	}
	// The sets of the slots this close ended — the applied one and the
	// proposals that lost — leave RAM last, once all that reads the close
	// has run: from here the archive or the window serves the applied one.
	n.pruneTxSets()
	return nil
}

func (n *Node) applyUpgrade(u Upgrade) {
	if ClassifyUpgrade(u, n.cfg.DesiredUpgrades) == UpgradeInvalid {
		return // consensus should never externalize these; be defensive
	}
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

// DefaultCheckpointInterval is the checkpoint cadence of a node configured
// with none: stellar-core's checkpoint frequency. Between checkpoints a
// close writes only what a restart replays — the header and the transaction
// set — and a node restarted before the first checkpoint replays its
// archived ledgers from genesis (RestoreFromArchive, DESIGN.md §7).
const DefaultCheckpointInterval = 64

// CheckpointInterval is the node's checkpoint cadence in ledgers, the
// configured one or DefaultCheckpointInterval.
func (n *Node) CheckpointInterval() uint32 {
	if n.cfg.CheckpointInterval > 0 {
		return uint32(n.cfg.CheckpointInterval)
	}
	return DefaultCheckpointInterval
}

// archiveLedger writes the closed ledger to the archive — header and
// transaction set every ledger, buckets and a checkpoint every
// CheckpointInterval — and reports whether the archive holds the ledger. A
// ledger it holds already, one a restore or a catch-up replayed, is not
// written again and must be this very header; another header there is
// counted as a failed header write, and the ledger is served from the
// recent window instead (RestoreFromArchive resumes a restarted node on its
// archived chain, so this is a fault, not a path). A failed write is logged
// and counted; the node keeps closing ledgers (validators need not host
// archives, §5.4), and any failure ends this ledger's archiving, so a
// checkpoint never names a ledger or a bucket the archive does not hold.
func (n *Node) archiveLedger(hdr *ledger.Header, ts *ledger.TxSet) (stored bool) {
	a := n.cfg.Archive
	failed := func(file string, err error) {
		n.ins.archiveErrors.With(file).Inc()
		n.log.Error("archive write failed", "file", file, "seq", hdr.LedgerSeq, "err", err)
	}
	if a.HasLedger(hdr.LedgerSeq) {
		held, err := a.GetHeader(hdr.LedgerSeq)
		if err == nil && held.Hash() != hdr.Hash() {
			err = fmt.Errorf("archive holds another ledger %d", hdr.LedgerSeq)
		}
		if err != nil {
			failed("header", err)
			return false
		}
		return true
	}
	if err := a.PutHeader(hdr); err != nil {
		failed("header", err)
		return false
	}
	if err := a.PutTxSet(hdr.LedgerSeq, ts); err != nil {
		failed("txset", err)
		return false
	}
	if hdr.LedgerSeq%n.CheckpointInterval() != 0 {
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
	if err := n.adoptBuckets(buckets, hdr); err != nil {
		return err
	}
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
			n.ov.BroadcastEnvelope(env, obs.TraceContext{})
		}
	}
	n.rebroadcastTxSetRefs()
}
