package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Behavior is a bitmask of adversary attack modes.
type Behavior int

// Adversary behaviors; combine with |.
const (
	// BehaviorEquivocate sends conflicting, properly signed SCP
	// statements for the same slot and statement sequence number to
	// different halves of the network — the canonical Byzantine attack
	// federated voting must survive (§3.1's "arbitrary behavior").
	BehaviorEquivocate Behavior = 1 << iota
	// BehaviorReplay re-sends stale recorded envelopes: old slots, old
	// statement sequence numbers, long after the network moved on.
	BehaviorReplay
	// BehaviorFlood blasts duplicate and garbage packets to stress the
	// overlay dedup cache and the herder's value validation.
	BehaviorFlood
	// BehaviorForge relays every envelope the adversary hears to every
	// peer with one signature bit flipped. The copy fails
	// verification; an overlay that keyed dedup on the signing payload
	// alone would take it for the genuine envelope, and on fast links it
	// arrives first.
	BehaviorForge
	// BehaviorForgeClosed sends, on the attack timer, forgeClosedCopies
	// copies of a recorded envelope for a slot the network has closed to
	// one honest peer, each with a different signature bit flipped. Each
	// copy has its own dedup id, so a node that forwards closed-slot
	// envelopes unverified floods every one of them network-wide; Echoed
	// counts the copies honest nodes send back to the adversary.
	BehaviorForgeClosed

	// BehaviorAll enables the attacks the random scenarios draw from;
	// BehaviorForge and BehaviorForgeClosed are asked for by name.
	BehaviorAll = BehaviorEquivocate | BehaviorReplay | BehaviorFlood
)

// forgeClosedCopies is how many forged copies BehaviorForgeClosed sends per
// attack round.
const forgeClosedCopies = 8

// String names the enabled behaviors.
func (b Behavior) String() string {
	if b == 0 {
		return "none"
	}
	s := ""
	add := func(name string) {
		if s != "" {
			s += "+"
		}
		s += name
	}
	if b&BehaviorEquivocate != 0 {
		add("equivocate")
	}
	if b&BehaviorReplay != 0 {
		add("replay")
	}
	if b&BehaviorFlood != 0 {
		add("flood")
	}
	if b&BehaviorForge != 0 {
		add("forge")
	}
	if b&BehaviorForgeClosed != 0 {
		add("forge-closed")
	}
	return s
}

// adversaryRecordCap bounds the replay buffer.
const adversaryRecordCap = 128

// Adversary is a Byzantine node injected at the overlay layer. It holds a
// real validator keypair — its envelopes carry valid signatures and may
// appear in honest nodes' quorum slices (a befouled configuration) — but
// it runs no consensus: it listens to the flood traffic to learn current
// slots and plausible values, then attacks on a timer. It never forwards
// other nodes' packets, so it cannot be used as an honest relay across a
// partition.
type Adversary struct {
	net       *simnet.Network
	keys      stellarcrypto.KeyPair
	id        fba.NodeID
	addr      simnet.Addr
	qset      fba.QuorumSet
	networkID stellarcrypto.Hash
	behaviors Behavior
	rng       *rand.Rand
	interval  time.Duration

	peers    []simnet.Addr
	maxSlot  uint64
	values   []scp.Value     // plausible values observed in nominations
	recorded []*scp.Envelope // replay buffer (FIFO ring)
	seq      uint64
	timer    *simnet.Timer

	// Emitted counts attack packets sent, for reports and metrics.
	Emitted uint64
	// Echoed counts the adversary's own packets that honest nodes
	// forwarded back to it.
	Echoed uint64
	// forgeBit is the signature bit BehaviorForgeClosed flips next.
	forgeBit int
}

// NewAdversary creates a Byzantine node. qset is the quorum set it
// advertises in its envelopes (typically the same one honest validators
// use, to look legitimate). The rng must be dedicated to this adversary so
// runs stay deterministic.
func NewAdversary(net *simnet.Network, keys stellarcrypto.KeyPair, qset fba.QuorumSet,
	networkID stellarcrypto.Hash, behaviors Behavior, rng *rand.Rand) *Adversary {
	id := fba.NodeIDFromPublicKey(keys.Public)
	a := &Adversary{
		net:       net,
		keys:      keys,
		id:        id,
		addr:      simnet.Addr(id),
		qset:      qset,
		networkID: networkID,
		behaviors: behaviors,
		rng:       rng,
		interval:  time.Second,
	}
	net.AddNode(a.addr, simnet.HandlerFunc(a.handle))
	return a
}

// ID returns the adversary's node ID (a valid public-key address).
func (a *Adversary) ID() fba.NodeID { return a.id }

// Addr returns the adversary's network address.
func (a *Adversary) Addr() simnet.Addr { return a.addr }

// Connect sets the peers the adversary attacks (and learns from).
func (a *Adversary) Connect(peers ...simnet.Addr) {
	for _, p := range peers {
		if p != a.addr {
			a.peers = append(a.peers, p)
		}
	}
}

// Start arms the attack timer.
func (a *Adversary) Start() {
	a.schedule()
}

func (a *Adversary) schedule() {
	jitter := time.Duration(a.rng.Int63n(int64(a.interval) / 2))
	a.timer = a.net.After(a.addr, a.interval/2+jitter, a.attack)
}

// handle eavesdrops on flood traffic to learn the network's current slot
// and a pool of plausible values; it forwards nothing genuine.
func (a *Adversary) handle(from simnet.Addr, msg any, size int) {
	p, ok := msg.(*overlay.Packet)
	if !ok || p.Kind != overlay.KindEnvelope || p.Envelope == nil {
		return
	}
	if p.Origin == a.addr {
		a.Echoed++
	}
	env := p.Envelope
	if env.Slot > a.maxSlot {
		a.maxSlot = env.Slot
	}
	for _, v := range env.Statement.Votes {
		a.observeValue(v)
	}
	for _, v := range env.Statement.Accepted {
		a.observeValue(v)
	}
	if len(env.Statement.Ballot.Value) > 0 {
		a.observeValue(env.Statement.Ballot.Value)
	}
	if len(a.recorded) < adversaryRecordCap {
		a.recorded = append(a.recorded, env)
	} else {
		a.recorded[a.rng.Intn(len(a.recorded))] = env
	}
	if a.behaviors&BehaviorForge != 0 {
		a.forge(env)
	}
}

// forge relays env to every peer with the first bit of its signature
// flipped.
func (a *Adversary) forge(env *scp.Envelope) {
	if len(env.Signature) == 0 {
		return
	}
	f := forged(env, 0)
	for _, p := range a.peers {
		a.sendEnvelope(p, f)
	}
}

// forged is a copy of env with bit of its signature, counted modulo the
// signature's length, flipped.
func forged(env *scp.Envelope, bit int) *scp.Envelope {
	sig := bytes.Clone(env.Signature)
	bit %= 8 * len(sig)
	sig[bit/8] ^= 1 << (bit % 8)
	return &scp.Envelope{Node: env.Node, Slot: env.Slot, Seq: env.Seq, QSet: env.QSet,
		Statement: env.Statement, Signature: sig}
}

func (a *Adversary) observeValue(v scp.Value) {
	if len(v) == 0 {
		return
	}
	if len(a.values) < 32 {
		a.values = append(a.values, v)
		return
	}
	a.values[a.rng.Intn(len(a.values))] = v
}

// attack runs one round of enabled behaviors and re-arms the timer.
func (a *Adversary) attack() {
	if a.behaviors&BehaviorEquivocate != 0 {
		a.equivocate()
	}
	if a.behaviors&BehaviorReplay != 0 {
		a.replay()
	}
	if a.behaviors&BehaviorFlood != 0 {
		a.flood()
	}
	if a.behaviors&BehaviorForgeClosed != 0 {
		a.forgeClosed()
	}
	a.schedule()
}

// forgeClosed sends forgeClosedCopies differently forged copies of a
// recorded envelope for a closed slot — two below the newest slot heard —
// to one honest peer. The flipped bit moves on from round to round, so a
// copy is new to the network's dedup unless the same envelope comes round
// again after all its bits were flipped once.
func (a *Adversary) forgeClosed() {
	n := len(a.recorded)
	if n == 0 || len(a.peers) == 0 {
		return
	}
	var env *scp.Envelope
	for i, start := 0, a.rng.Intn(n); i < n; i++ {
		if e := a.recorded[(start+i)%n]; e.Slot+2 <= a.maxSlot && len(e.Signature) > 0 {
			env = e
			break
		}
	}
	if env == nil {
		return
	}
	peer := a.peers[a.rng.Intn(len(a.peers))]
	for range forgeClosedCopies {
		a.sendEnvelope(peer, forged(env, a.forgeBit))
		a.forgeBit++
	}
}

// conflictingValues produces two distinct plausible values: an observed
// value and a mutation of it (same transaction set, shifted close time),
// both of which honest validators can decode and will treat as candidate
// values rather than garbage.
func (a *Adversary) conflictingValues() (scp.Value, scp.Value, bool) {
	if len(a.values) == 0 {
		return nil, nil, false
	}
	base := a.values[a.rng.Intn(len(a.values))]
	sv, err := herder.DecodeValue(base)
	if err != nil {
		return nil, nil, false
	}
	sv.CloseTime += 1 + int64(a.rng.Intn(5))
	return base, sv.Encode(), true
}

// equivocate signs two conflicting statements with the same sequence
// number and sends each to a different half of the peer list. Receivers
// keep whichever arrives first, so different parts of the network hold
// contradictory views of the adversary's vote.
func (a *Adversary) equivocate() {
	if a.maxSlot == 0 || len(a.peers) < 2 {
		return
	}
	va, vb, ok := a.conflictingValues()
	if !ok {
		return
	}
	a.seq++
	slot := a.maxSlot
	envA := a.sign(&scp.Envelope{
		Node: a.id, Slot: slot, Seq: a.seq, QSet: a.qset,
		Statement: scp.Statement{Type: scp.StmtNominate, Votes: []scp.Value{va}},
	})
	envB := a.sign(&scp.Envelope{
		Node: a.id, Slot: slot, Seq: a.seq, QSet: a.qset,
		Statement: scp.Statement{Type: scp.StmtNominate, Votes: []scp.Value{vb}},
	})
	// Occasionally escalate to ballot-protocol equivocation: conflicting
	// PREPARE statements for incompatible ballots at the same counter.
	if a.rng.Intn(3) == 0 {
		a.seq++
		envA = a.sign(&scp.Envelope{
			Node: a.id, Slot: slot, Seq: a.seq, QSet: a.qset,
			Statement: scp.Statement{Type: scp.StmtPrepare, Ballot: scp.Ballot{Counter: 1, Value: va}},
		})
		envB = a.sign(&scp.Envelope{
			Node: a.id, Slot: slot, Seq: a.seq, QSet: a.qset,
			Statement: scp.Statement{Type: scp.StmtPrepare, Ballot: scp.Ballot{Counter: 1, Value: vb}},
		})
	}
	half := len(a.peers) / 2
	for i, p := range a.peers {
		env := envA
		if i >= half {
			env = envB
		}
		a.sendEnvelope(p, env)
	}
}

// replay re-sends a few stale recorded envelopes to random peers.
func (a *Adversary) replay() {
	if len(a.recorded) == 0 {
		return
	}
	for i := 0; i < 1+a.rng.Intn(3); i++ {
		env := a.recorded[a.rng.Intn(len(a.recorded))]
		peer := a.peers[a.rng.Intn(len(a.peers))]
		a.Emitted++
		a.net.Send(a.addr, peer, &overlay.Packet{
			Kind: overlay.KindEnvelope, Envelope: env,
			TTL: overlay.DefaultTTL, Origin: a.addr,
		}, env.WireSize())
	}
}

// flood blasts garbage nominations (valid signature, undecodable value)
// and oversized-TTL duplicates at every peer.
func (a *Adversary) flood() {
	if a.maxSlot == 0 {
		return
	}
	for burst := 0; burst < 4; burst++ {
		junk := make(scp.Value, 8+a.rng.Intn(24))
		a.rng.Read(junk)
		a.seq++
		env := a.sign(&scp.Envelope{
			Node: a.id, Slot: a.maxSlot + uint64(a.rng.Intn(3)), Seq: a.seq, QSet: a.qset,
			Statement: scp.Statement{Type: scp.StmtNominate, Votes: []scp.Value{junk}},
		})
		for _, p := range a.peers {
			a.sendEnvelope(p, env)
			// The same envelope again: must be absorbed by dedup.
			a.sendEnvelope(p, env)
		}
	}
}

func (a *Adversary) sign(env *scp.Envelope) *scp.Envelope {
	env.Sign(a.keys.Secret.Sign)
	return env
}

func (a *Adversary) sendEnvelope(to simnet.Addr, env *scp.Envelope) {
	a.Emitted++
	a.net.Send(a.addr, to, &overlay.Packet{
		Kind: overlay.KindEnvelope, Envelope: env,
		TTL: overlay.DefaultTTL, Origin: a.addr,
	}, env.WireSize())
}

// String describes the adversary for logs.
func (a *Adversary) String() string {
	return fmt.Sprintf("adversary{%s %s}", a.id, a.behaviors)
}
