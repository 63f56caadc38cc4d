// Package overlay implements Stellar's peer-to-peer message layer as the
// paper describes it (§7.5): transactions and SCP envelopes are broadcast
// with a naïve flooding protocol — each node forwards every novel message
// to all peers except the one it came from — with a bounded duplicate-
// suppression cache. (The paper notes structured multicast as future
// work; the flooding cost it measures is what this reproduces.)
//
// A proposed transaction set is flooded by reference (ledger.TxSetRef): the
// value names the set by hash (§5.3) and a receiver rebuilds it from its own
// pool, asking the peer the reference came from for the whole set only when
// it cannot. A node therefore forwards a reference only once it holds the
// set, so whoever a reference is heard from can serve it.
package overlay

import (
	"fmt"
	"log/slog"

	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Kind tags the payload of a flooded packet.
type Kind int

// Packet kinds.
const (
	KindEnvelope Kind = iota + 1
	KindTx
	// KindTxSet carries a whole transaction set point-to-point, in reply
	// to a KindTxSetReq; it is never flooded or forwarded.
	KindTxSet
	// KindCatchupReq and KindCatchupResp are point-to-point (never
	// flooded): a node behind the network asks a peer for the ledgers after
	// its tip, and the reply carries them as (header, tx set) pairs (§6:
	// validators help lagging peers finish the ledgers they missed).
	KindCatchupReq
	KindCatchupResp
	// KindArchiveReq and KindArchiveResp are the cold-start state fetch,
	// also point-to-point: a node with an empty data dir fetches a peer's
	// latest checkpoint, its header and the buckets it names in bounded
	// chunks, adopts that state, and then asks for the ledgers past it with
	// KindCatchupReq (netcatchup.go in the herder). A request with an empty
	// Path is discovery: the reply carries the peer's latest checkpoint and
	// tip sequences.
	KindArchiveReq
	KindArchiveResp
	// KindTxSetRef floods a proposal by reference; KindTxSetReq asks one
	// peer, point-to-point, for the whole set a reference named.
	KindTxSetRef
	KindTxSetReq
)

// String names the kind for metric labels and logs.
func (k Kind) String() string {
	switch k {
	case KindEnvelope:
		return "envelope"
	case KindTx:
		return "tx"
	case KindTxSet:
		return "txset"
	case KindCatchupReq:
		return "catchup_req"
	case KindCatchupResp:
		return "catchup_resp"
	case KindArchiveReq:
		return "archive_req"
	case KindArchiveResp:
		return "archive_resp"
	case KindTxSetRef:
		return "txset_ref"
	case KindTxSetReq:
		return "txset_req"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Packet is the unit of flooding.
type Packet struct {
	Kind     Kind
	Envelope *scp.Envelope
	Tx       *ledger.Transaction
	TxSet    *ledger.TxSet
	TxSetRef *ledger.TxSetRef
	// TxSetHash names the set a KindTxSetReq asks for.
	TxSetHash stellarcrypto.Hash
	// TTL bounds re-flooding so that an undersized dedup cache degrades
	// into extra duplicates rather than an infinite forwarding loop.
	TTL int
	// Origin is the node that first broadcast the packet; structured
	// multicast (multicast.go) builds its tree rooted here.
	Origin simnet.Addr
	// Trace is the propagated span context (trace id + emitting span id);
	// zero when the sender was not tracing. It rides the wire so receiving
	// nodes continue the originating causal tree, and is deliberately
	// excluded from the dedup identity — two floods of the same content
	// are the same packet whatever spans emitted them.
	Trace obs.TraceContext

	// Catch-up fields (point-to-point, not flooded).
	CatchupFrom  uint32
	CatchupItems []CatchupItem

	// Archive-catchup fields (point-to-point, not flooded). A request
	// names an archive-relative Path and an Offset; the response echoes
	// them and carries one chunk of the raw file plus its Total size and
	// the chunk's checksum. Discovery (empty Path) uses ArchiveSeq for the
	// serving peer's latest checkpoint and ArchiveTip for its tip ledger;
	// ArchiveErr reports a refusal ("no archive", "no such file") so the
	// fetcher can fail over to another peer instead of timing out.
	ArchivePath  string
	ArchiveOff   int64
	ArchiveTotal int64
	ArchiveData  []byte
	ArchiveSum   [32]byte
	ArchiveSeq   uint32
	ArchiveTip   uint32
	ArchiveErr   string
}

// CatchupItem is one closed ledger for peer catch-up: its header and its
// transaction set. The receiver installs it only if the set chains from its
// tip and hashes to the header's TxSetHash, the header agrees with any SCP
// decision the receiver holds for that slot, and applying the set
// reproduces the header; for a slot it never decided, it trusts the peer.
type CatchupItem struct {
	Header *ledger.Header
	TxSet  *ledger.TxSet
}

// DefaultTTL comfortably exceeds the diameter of any realistic overlay.
const DefaultTTL = 16

// id returns the packet's dedup identity.
func (p *Packet) id(networkID stellarcrypto.Hash) stellarcrypto.Hash {
	switch p.Kind {
	case KindEnvelope:
		return stellarcrypto.HashBytes(p.Envelope.SigningPayload())
	case KindTx:
		return p.Tx.Hash(networkID)
	case KindTxSetRef:
		return p.TxSetRef.SetHash()
	default:
		return stellarcrypto.Hash{}
	}
}

// size approximates the wire size for bandwidth accounting.
func (p *Packet) size() int {
	switch p.Kind {
	case KindEnvelope:
		return p.Envelope.WireSize()
	case KindTx:
		// Payload plus signatures; a close-enough approximation for the
		// §7.4 bandwidth measurement.
		n := 160
		for i := range p.Tx.Operations {
			_ = i
			n += 64
		}
		n += 64 * len(p.Tx.Signatures)
		return n
	case KindTxSet:
		return 64 + 224*len(p.TxSet.Txs)
	case KindTxSetRef:
		return 128 + 32*len(p.TxSetRef.TxHashes)
	case KindTxSetReq:
		return 96
	case KindCatchupReq:
		return 32
	case KindCatchupResp:
		n := 32
		for _, it := range p.CatchupItems {
			n += ledger.HeaderXDRLen + 40 + 224*len(it.TxSet.Txs)
		}
		return n
	case KindArchiveReq:
		return 64 + len(p.ArchivePath)
	case KindArchiveResp:
		return 128 + len(p.ArchivePath) + len(p.ArchiveData)
	default:
		return 0
	}
}

// DefaultSeenCacheSize bounds the duplicate-suppression cache.
const DefaultSeenCacheSize = 4096

// Overlay is one node's view of the flooding network. It is backend-
// agnostic: the same flooding, dedup, and TTL logic runs over the
// deterministic simulator or a real TCP transport, whichever simnet.Env
// is supplied at construction.
type Overlay struct {
	net       simnet.Env
	self      simnet.Addr
	networkID stellarcrypto.Hash
	peers     []simnet.Addr
	mode      Mode
	members   []simnet.Addr

	// Dedup cache: set plus FIFO eviction ring.
	seen     map[stellarcrypto.Hash]struct{}
	ring     []stellarcrypto.Hash
	ringNext int

	// Delivery callbacks into the herder.
	OnEnvelope func(*scp.Envelope)
	OnTx       func(*ledger.Transaction)
	// OnTxSetRef reports whether the application now holds the set the
	// reference names; only then is the reference marked seen and forwarded.
	// One that is still missing is delivered again from the next peer, which
	// is the next peer that can be asked for it.
	OnTxSetRef func(from simnet.Addr, ref *ledger.TxSetRef) bool
	// OnDirect handles point-to-point packets — catch-up, archive fetch,
	// transaction-set requests and their replies; from identifies the peer
	// to reply to.
	OnDirect func(from simnet.Addr, p *Packet)
	// OnTraceCtx, when set, observes every novel flooded packet before its
	// payload callback fires, so the herder can extract the propagated
	// trace context and open continuation spans. It is observability-only:
	// consensus state never depends on it.
	OnTraceCtx func(p *Packet, from simnet.Addr)

	// Counters.
	FloodsSent     uint64
	Delivered      uint64
	DupesSuppessed uint64

	// Registry instruments (nil until SetObs; guarded at each use so an
	// unwired overlay — unit tests, tools — costs nothing).
	ins *overlayInstruments
	log *slog.Logger
}

// overlayInstruments are the overlay's registry series.
type overlayInstruments struct {
	pktsSent  *obs.CounterVec // overlay_packets_sent_total{kind}
	bytesSent *obs.CounterVec // overlay_bytes_sent_total{kind}
	delivered *obs.CounterVec // overlay_packets_delivered_total{kind}
	dupes     *obs.Counter    // overlay_dupes_suppressed_total
	peers     *obs.Gauge      // overlay_peers
}

// SetObs wires the overlay's counters into a registry and attaches a
// component logger; nil arguments disable the respective facility.
func (o *Overlay) SetObs(reg *obs.Registry, log *slog.Logger) {
	if reg != nil {
		o.ins = &overlayInstruments{
			pktsSent: reg.CounterVec("overlay_packets_sent_total",
				"packets this node sent (floods, tree multicast, direct)", "kind"),
			bytesSent: reg.CounterVec("overlay_bytes_sent_total",
				"approximate wire bytes this node sent (§7.4 bandwidth)", "kind"),
			delivered: reg.CounterVec("overlay_packets_delivered_total",
				"novel packets delivered to the application", "kind"),
			dupes: reg.Counter("overlay_dupes_suppressed_total",
				"duplicate packets dropped by the flood dedup cache"),
			peers: reg.Gauge("overlay_peers", "connected peer count"),
		}
	}
	o.log = log
}

// New creates an overlay endpoint for self on a network environment
// (simulated or real). cacheSize ≤ 0 selects the default.
func New(net simnet.Env, self simnet.Addr, networkID stellarcrypto.Hash, cacheSize int) *Overlay {
	if cacheSize <= 0 {
		cacheSize = DefaultSeenCacheSize
	}
	return &Overlay{
		net:       net,
		self:      self,
		networkID: networkID,
		seen:      make(map[stellarcrypto.Hash]struct{}, cacheSize),
		ring:      make([]stellarcrypto.Hash, cacheSize),
	}
}

// Connect sets the peer list (bidirectional links are the caller's
// responsibility: connect both sides).
func (o *Overlay) Connect(peers ...simnet.Addr) {
	for _, p := range peers {
		if p != o.self {
			o.peers = append(o.peers, p)
		}
	}
	o.gaugePeers()
}

// AddPeer adds one peer if not already present. Real transports call this
// as connections complete their handshake, so the flood peer set tracks
// live authenticated links rather than static wiring.
func (o *Overlay) AddPeer(p simnet.Addr) {
	if p == o.self {
		return
	}
	for _, q := range o.peers {
		if q == p {
			return
		}
	}
	o.peers = append(o.peers, p)
	o.gaugePeers()
}

// RemovePeer drops a peer (a real connection died); unknown peers are a
// no-op.
func (o *Overlay) RemovePeer(p simnet.Addr) {
	for i, q := range o.peers {
		if q == p {
			o.peers = append(o.peers[:i], o.peers[i+1:]...)
			o.gaugePeers()
			return
		}
	}
}

func (o *Overlay) gaugePeers() {
	if o.ins != nil {
		o.ins.peers.Set(float64(len(o.peers)))
	}
}

// send transmits one packet to one peer, recording volume counters.
func (o *Overlay) send(to simnet.Addr, p *Packet) {
	size := p.size()
	if o.ins != nil {
		kind := p.Kind.String()
		o.ins.pktsSent.With(kind).Inc()
		o.ins.bytesSent.With(kind).Add(float64(size))
	}
	o.net.Send(o.self, to, p, size)
}

// Peers returns the connected peers.
func (o *Overlay) Peers() []simnet.Addr { return o.peers }

// markSeen inserts the id, evicting FIFO; reports whether it was new.
func (o *Overlay) markSeen(id stellarcrypto.Hash) bool {
	if _, dup := o.seen[id]; dup {
		return false
	}
	old := o.ring[o.ringNext]
	if !old.Zero() {
		delete(o.seen, old)
	}
	o.ring[o.ringNext] = id
	o.ringNext = (o.ringNext + 1) % len(o.ring)
	o.seen[id] = struct{}{}
	return true
}

// BroadcastEnvelope floods a locally generated SCP envelope.
func (o *Overlay) BroadcastEnvelope(env *scp.Envelope) {
	o.BroadcastEnvelopeCtx(env, obs.TraceContext{})
}

// BroadcastEnvelopeCtx floods an envelope carrying the emitting span's
// trace context so receivers continue the slot's causal tree.
func (o *Overlay) BroadcastEnvelopeCtx(env *scp.Envelope, ctx obs.TraceContext) {
	p := &Packet{Kind: KindEnvelope, Envelope: env, TTL: DefaultTTL, Origin: o.self, Trace: ctx}
	o.markSeen(p.id(o.networkID))
	o.disseminate(p, "")
}

// BroadcastTx floods a locally submitted transaction.
func (o *Overlay) BroadcastTx(tx *ledger.Transaction) {
	o.BroadcastTxCtx(tx, obs.TraceContext{})
}

// BroadcastTxCtx floods a transaction carrying the submitting span's
// trace context.
func (o *Overlay) BroadcastTxCtx(tx *ledger.Transaction, ctx obs.TraceContext) {
	p := &Packet{Kind: KindTx, Tx: tx, TTL: DefaultTTL, Origin: o.self, Trace: ctx}
	o.markSeen(p.id(o.networkID))
	o.disseminate(p, "")
}

// SendDirect delivers a packet point-to-point: no flooding, no dedup.
func (o *Overlay) SendDirect(to simnet.Addr, p *Packet) {
	o.send(to, p)
}

// BroadcastTxSetRef floods the reference of a transaction set this node
// holds, so peers can validate and apply values that name its hash (§5.3);
// ctx is the proposing slot span's trace context, zero when there is none.
func (o *Overlay) BroadcastTxSetRef(ref *ledger.TxSetRef, ctx obs.TraceContext) {
	p := &Packet{Kind: KindTxSetRef, TxSetRef: ref, TTL: DefaultTTL, Origin: o.self, Trace: ctx}
	o.markSeen(p.id(o.networkID))
	o.disseminate(p, "")
}

// flood sends to every peer except the one the packet arrived from.
func (o *Overlay) flood(p *Packet, except simnet.Addr) {
	if p.TTL <= 0 {
		return
	}
	for _, peer := range o.peers {
		if peer == except {
			continue
		}
		o.FloodsSent++
		o.send(peer, p)
	}
}

// HandleMessage implements simnet.Handler for packets.
func (o *Overlay) HandleMessage(from simnet.Addr, msg any, size int) {
	p, ok := msg.(*Packet)
	if !ok {
		return
	}
	switch p.Kind {
	case KindEnvelope, KindTx, KindTxSetRef:
	default:
		if o.OnDirect != nil {
			o.OnDirect(from, p)
		}
		return
	}
	id := p.id(o.networkID)
	if p.Kind == KindTxSetRef {
		// Seen only once the set is held (OnTxSetRef).
		if _, dup := o.seen[id]; dup {
			o.suppressed()
			return
		}
		o.delivered(p, from)
		if o.OnTxSetRef != nil && o.OnTxSetRef(from, p.TxSetRef) {
			o.markSeen(id)
			o.forward(p, from)
		}
		return
	}
	if !o.markSeen(id) {
		o.suppressed()
		return
	}
	o.delivered(p, from)
	switch p.Kind {
	case KindEnvelope:
		if o.OnEnvelope != nil {
			o.OnEnvelope(p.Envelope)
		}
	case KindTx:
		if o.OnTx != nil {
			o.OnTx(p.Tx)
		}
	}
	o.forward(p, from)
}

// suppressed counts a duplicate the dedup cache dropped.
func (o *Overlay) suppressed() {
	o.DupesSuppessed++
	if o.ins != nil {
		o.ins.dupes.Inc()
	}
}

// delivered counts a novel flooded packet and shows it to the trace hook,
// before its payload callback runs.
func (o *Overlay) delivered(p *Packet, from simnet.Addr) {
	o.Delivered++
	if o.ins != nil {
		o.ins.delivered.With(p.Kind.String()).Inc()
	}
	if o.OnTraceCtx != nil {
		o.OnTraceCtx(p, from)
	}
}

// forward passes a received packet on, one hop older.
func (o *Overlay) forward(p *Packet, from simnet.Addr) {
	fwd := *p
	fwd.TTL--
	o.disseminate(&fwd, from)
}
