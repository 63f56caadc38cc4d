package herder

import (
	"strconv"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/mempool"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Causal span instrumentation. When the node's obs bundle carries a
// Tracer, the herder records a span tree per slot (consensus phases) and
// per locally submitted transaction (lifecycle phases), linked by flow
// arrows where a transaction crosses into consensus and into apply. All
// hooks hang off n.tr, which is nil when tracing is off — the methods
// below then reduce to a nil check, keeping the consensus hot path free
// of tracing cost.

// maxTracedTxs bounds the per-node live transaction span map; txs
// submitted beyond it simply go untraced (the tracer itself has its own
// global span cap too).
const maxTracedTxs = 4096

// slotSpans is the consensus span tree of one in-flight slot:
//
//	slot
//	├── trigger           (wall-measured: candidate build → Nominate returns)
//	├── nomination        trigger → first prepare
//	├── balloting         first prepare → externalize
//	│   ├── ballot-prepare    first prepare → accept commit
//	│   └── ballot-commit     accept commit → externalize
//	└── apply             externalize → state/buckets/archive done
//	    ├── sig-prepass   (wall-measured, from ledger.ApplyTxSet)
//	    ├── tx-apply      (wall-measured, from ledger.ApplyTxSet)
//	    ├── bucket-merge  (wall-measured)
//	    └── archive       (wall-measured)
//
// Later fields stay nil until their phase transition fires; every use is
// nil-safe.
type slotSpans struct {
	slot       *obs.Span
	nomination *obs.Span
	balloting  *obs.Span
	prepare    *obs.Span
	commit     *obs.Span
}

// txTrace follows one locally submitted transaction:
//
//	tx
//	├── submit       (instant marker)
//	├── pending      submit → picked as nomination candidate
//	├── consensus    candidate → its slot externalizes
//	└── applied      the ledger close that included it
type txTrace struct {
	root  *obs.Span
	phase *obs.Span // current open lifecycle child
	stage int       // 1 = pending, 2 = consensus
}

const (
	txStagePending = 1 + iota
	txStageConsensus
)

// shortID abbreviates a node/tx identifier for span track names.
func shortID(s string) string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// initTracer attaches the node to the bundle's tracer (no-op when
// tracing is off).
func (n *Node) initTracer() {
	if n.obs.Tracer == nil {
		return
	}
	n.tr = n.obs.Tracer.Proc("node " + shortID(string(n.id)))
	n.spans = make(map[uint64]*slotSpans)
	n.txTrace = make(map[stellarcrypto.Hash]*txTrace)
}

// traceSubmitTx opens the lifecycle root for a client-submitted tx,
// recording the admission decision as an instant marker (so the trace
// shows whether the pool took it outright or via replace-by-fee).
func (n *Node) traceSubmitTx(h stellarcrypto.Hash, outcome mempool.Outcome) {
	if n.tr == nil || len(n.txTrace) >= maxTracedTxs {
		return
	}
	root := n.tr.Span("tx "+shortID(h.Hex()), obs.SpanTx)
	root.Arg("hash", h.Hex())
	sub := root.Child(obs.SpanTxSubmit)
	sub.End()
	adm := root.Child(obs.SpanTxAdmit)
	adm.Arg("outcome", outcome.String())
	adm.End()
	pend := root.Child(obs.SpanTxPending)
	n.txTrace[h] = &txTrace{root: root, phase: pend, stage: txStagePending}
}

// traceTriggerSlot opens the slot's consensus span tree and moves every
// candidate transaction from pending to consensus, with a flow arrow into
// the slot's nomination.
func (n *Node) traceTriggerSlot(slot uint64, candidates []*ledger.Transaction) {
	if n.tr == nil {
		return
	}
	ss := &slotSpans{}
	ss.slot = n.tr.Span("consensus", obs.SpanSlot)
	ss.slot.Arg("slot", strconv.FormatUint(slot, 10))
	ss.slot.Arg("txs", strconv.Itoa(len(candidates)))
	ss.nomination = ss.slot.Child(obs.SpanNomination)
	n.spans[slot] = ss
	for _, tx := range candidates {
		txt := n.txTrace[tx.Hash(n.cfg.NetworkID)]
		if txt == nil || txt.stage != txStagePending {
			// Untracked, or already riding an earlier slot's consensus
			// (a failed slot's candidates retry on the next trigger).
			continue
		}
		txt.phase.End()
		n.obs.Tracer.Flow(txt.phase, ss.nomination)
		cons := txt.root.Child(obs.SpanTxConsensus)
		cons.Arg("slot", strconv.FormatUint(slot, 10))
		txt.phase = cons
		txt.stage = txStageConsensus
	}
}

// traceTriggerDone records the trigger's measured wall-clock cost under
// the slot span.
func (n *Node) traceTriggerDone(slot uint64, dur time.Duration) {
	if ss := n.spans[slot]; ss != nil {
		ss.slot.CompleteChild(obs.SpanTrigger, dur)
	}
}

// traceFirstPrepare closes nomination and opens balloting/prepare.
func (n *Node) traceFirstPrepare(slot uint64) {
	ss := n.spans[slot]
	if ss == nil {
		return
	}
	ss.nomination.End()
	ss.balloting = ss.slot.Child(obs.SpanBalloting)
	ss.prepare = ss.balloting.Child(obs.SpanPrepare)
}

// traceAcceptCommit closes the prepare phase and opens commit.
func (n *Node) traceAcceptCommit(slot uint64) {
	ss := n.spans[slot]
	if ss == nil || ss.commit != nil {
		return
	}
	ss.prepare.End()
	if ss.balloting != nil {
		ss.commit = ss.balloting.Child(obs.SpanCommit)
	}
}

// traceExternalized closes the balloting subtree. The slot span itself
// stays open until apply (which may wait on a missing tx set).
func (n *Node) traceExternalized(slot uint64) {
	ss := n.spans[slot]
	if ss == nil {
		return
	}
	// A node can learn the decision without locally walking every ballot
	// phase; nomination may even still be open. End() is idempotent and
	// nil-safe, so close whatever exists.
	ss.nomination.End()
	ss.prepare.End()
	ss.commit.End()
	ss.balloting.End()
}

// traceApplyStart opens the slot's apply span (nil when untraced) and
// points the ledger state at it for the prepass/apply children.
func (n *Node) traceApplyStart(slot uint64) *obs.Span {
	ss := n.spans[slot]
	if ss == nil {
		return nil
	}
	apply := ss.slot.Child(obs.SpanApply)
	n.state.SetTraceSpan(apply)
	return apply
}

// traceTxsApplied finishes the lifecycle of every traced transaction the
// closing ledger included. It must run before the pending-pool pruning
// (which would otherwise report them as evicted). applyDur is the
// wall-clock cost of the close so far.
func (n *Node) traceTxsApplied(slot uint64, apply *obs.Span, ts *ledger.TxSet, applyDur time.Duration) {
	if n.tr == nil || len(n.txTrace) == 0 {
		return
	}
	for _, tx := range ts.Txs {
		h := tx.Hash(n.cfg.NetworkID)
		txt := n.txTrace[h]
		if txt == nil {
			continue
		}
		txt.phase.End()
		n.obs.Tracer.Flow(txt.phase, apply)
		ap := txt.root.Child(obs.SpanTxApplied)
		ap.Arg("slot", strconv.FormatUint(slot, 10))
		ap.EndAfter(applyDur)
		txt.root.End()
		delete(n.txTrace, h)
	}
}

// traceApplyEnd closes the apply span (after archive, the last measured
// phase) and the slot root, and detaches the ledger trace hook.
func (n *Node) traceApplyEnd(slot uint64, apply *obs.Span) {
	if n.tr == nil {
		return
	}
	n.state.SetTraceSpan(nil)
	apply.End()
	if ss := n.spans[slot]; ss != nil {
		ss.slot.End()
		delete(n.spans, slot)
	}
}

// --- Cross-process trace propagation (overlay inject/extract) ---

// txCtx returns the trace context to inject into a flooded transaction:
// the submitting tx's lifecycle root, so receiving nodes hang their own
// lifecycle trees off it. Zero when the tx is untraced.
func (n *Node) txCtx(h stellarcrypto.Hash) obs.TraceContext {
	if n.tr == nil {
		return obs.TraceContext{}
	}
	if txt := n.txTrace[h]; txt != nil {
		return txt.root.Context()
	}
	return obs.TraceContext{}
}

// slotCtx returns the trace context of the slot's deepest open consensus
// phase, injected into outgoing SCP envelopes and tx-set references so peers
// continue the slot's causal tree. Zero when the slot is untraced.
func (n *Node) slotCtx(slot uint64) obs.TraceContext {
	if n.tr == nil {
		return obs.TraceContext{}
	}
	ss := n.spans[slot]
	if ss == nil {
		return obs.TraceContext{}
	}
	for _, sp := range []*obs.Span{ss.commit, ss.prepare, ss.balloting, ss.nomination, ss.slot} {
		if sp != nil {
			return sp.Context()
		}
	}
	return obs.TraceContext{}
}

// onPacketTrace is the overlay's OnTraceCtx hook: it runs for every novel
// flooded packet, before the payload callback, and extracts the
// propagated context into continuation spans. Observability only — it
// never touches consensus state.
func (n *Node) onPacketTrace(p *overlay.Packet, from simnet.Addr) {
	if n.tr == nil || p.Trace.IsZero() {
		return
	}
	ctx := p.Trace
	// The emitting span always lives on the originating node (forwarders
	// relay the context unchanged), which the packet already names.
	ctx.Origin = string(p.Origin)
	switch p.Kind {
	case overlay.KindTx:
		n.traceRecvTx(p.Tx, ctx)
	case overlay.KindEnvelope:
		n.traceRecvEnvelope(p.Envelope, ctx, from)
	case overlay.KindTxSetRef:
		n.traceRecvMarker("recv-txset", ctx, from)
	}
}

// traceRecvTx opens this node's own lifecycle tree for a transaction that
// arrived by flood, rooted remotely at the submitter's tx span: the
// merged cluster trace then shows one causal tree with a per-node
// lifecycle (pending → consensus → applied) under the originating submit.
func (n *Node) traceRecvTx(tx *ledger.Transaction, ctx obs.TraceContext) {
	if n.state == nil || len(n.txTrace) >= maxTracedTxs {
		return
	}
	h := tx.Hash(n.cfg.NetworkID)
	if n.txTrace[h] != nil {
		return
	}
	root := n.tr.RemoteSpan("tx "+shortID(h.Hex()), obs.SpanTx, ctx)
	root.Arg("hash", h.Hex())
	pend := root.Child(obs.SpanTxPending)
	n.txTrace[h] = &txTrace{root: root, phase: pend, stage: txStagePending}
}

// traceRecvEnvelope drops an instant marker linking a received SCP
// envelope back to the emitting node's consensus phase span. Envelopes
// for already-closed slots are skipped — they carry no latency story and
// would only churn the bounded span store.
func (n *Node) traceRecvEnvelope(env *scp.Envelope, ctx obs.TraceContext, from simnet.Addr) {
	if n.last != nil && env.Slot <= uint64(n.last.LedgerSeq) {
		return
	}
	sp := n.tr.RemoteSpan("overlay", "recv-envelope", ctx)
	sp.Arg("slot", strconv.FormatUint(env.Slot, 10))
	sp.Arg("from", shortID(string(from)))
	sp.End()
}

// traceRecvMarker drops an instant remote-parented marker span on the
// overlay track (tx-set floods and other one-shot arrivals).
func (n *Node) traceRecvMarker(name string, ctx obs.TraceContext, from simnet.Addr) {
	sp := n.tr.RemoteSpan("overlay", name, ctx)
	sp.Arg("from", shortID(string(from)))
	sp.End()
}

// traceEvictTx ends the lifecycle of a pending transaction dropped
// without ever being applied locally — stale sequence number,
// fee-pressure eviction from the full pool, or a rejected flood whose
// packet hook already opened a trace. The reason lands on the root span
// so Perfetto queries can split evictions by cause.
func (n *Node) traceEvictTx(h stellarcrypto.Hash, reason string) {
	if n.tr == nil {
		return
	}
	txt := n.txTrace[h]
	if txt == nil {
		return
	}
	txt.phase.End()
	txt.root.Arg("outcome", "evicted")
	txt.root.Arg("reason", reason)
	txt.root.End()
	delete(n.txTrace, h)
}
