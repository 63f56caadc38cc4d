package herder

import (
	"sort"
	"time"

	"stellar/internal/fba"
	"stellar/internal/scp"
)

// Live quorum-health monitoring (the operational signal stellar-core
// exposes through its quorum info endpoint): which validators this node's
// quorum set actually depends on, how far behind each one is, and whether
// the healthy ones still satisfy a slice. Evidence comes from received
// SCP envelopes whose signature was checked — a validator is only as alive
// as its last statement, and only it can make one.

// behindLedgers is how many ledgers behind a peer may be before it
// counts as "behind" (one in-flight slot is normal).
const behindLedgers = 2

// silentIntervals is how many ledger intervals of silence make a peer
// "silent" (flooding means any live peer speaks every slot).
const silentIntervals = 2

// peerStatus is the per-validator evidence extracted from envelopes.
type peerStatus struct {
	lastSlot   uint64        // highest slot referenced by any envelope
	lastClosed uint64        // highest ledger the peer provably closed
	lastHeard  time.Duration // node-clock time of the last envelope
}

// with is ps updated by one envelope heard at now. An externalize statement
// proves the peer closed that slot; any other statement proves it closed
// the slot before (it is still deciding this one).
func (ps peerStatus) with(env *scp.Envelope, now time.Duration) peerStatus {
	ps.lastHeard = now
	ps.lastSlot = max(ps.lastSlot, env.Slot)
	closed := env.Slot - 1
	if env.Statement.Type == scp.StmtExternalize {
		closed = env.Slot
	}
	ps.lastClosed = max(ps.lastClosed, closed)
	return ps
}

// noteEnvelope folds one envelope SCP accepted — well-formed, and signed by
// the node it names — into the health table. An envelope naming a node
// outside the quorum set is not recorded, since the report never reads it.
func (n *Node) noteEnvelope(env *scp.Envelope) {
	ps, member := n.peersHealth[env.Node]
	if !member {
		return
	}
	if ps == nil {
		ps = &peerStatus{}
		n.peersHealth[env.Node] = ps
	}
	*ps = ps.with(env, n.net.Now())
}

// noteClosedSlotEnvelope takes health evidence from an envelope for a slot
// this node has closed, which SCP never sees: a peer stuck replaying old
// slots is exactly what /debug/quorum reports. onEnvelope has verified its
// signature, so a forged envelope revives no one. It counts only when it
// would change the member's verdict (Missing, Behind or Silent).
func (n *Node) noteClosedSlotEnvelope(env *scp.Envelope) {
	ps, member := n.peersHealth[env.Node]
	if !member {
		return
	}
	var next peerStatus
	if ps != nil {
		next = *ps
	}
	now := n.net.Now()
	next = next.with(env, now)
	if n.health(ps, now).verdict() == n.health(&next, now).verdict() {
		return
	}
	n.noteEnvelope(env)
}

// NodeHealth is one tracked validator's view in the quorum report.
type NodeHealth struct {
	Node       fba.NodeID    `json:"node"`
	LastSlot   uint64        `json:"last_slot"`   // newest slot it spoke about
	LastClosed uint64        `json:"last_closed"` // newest ledger it provably closed
	Lag        int64         `json:"lag"`         // our seq minus its last closed
	HeardAgo   time.Duration `json:"heard_ago_ns"`
	Missing    bool          `json:"missing"` // never heard from
	Behind     bool          `json:"behind"`  // lag ≥ behindLedgers
	Silent     bool          `json:"silent"`  // no envelope for silentIntervals
}

// Healthy reports whether the validator counts toward quorum availability.
func (h *NodeHealth) Healthy() bool { return !h.Missing && !h.Behind && !h.Silent }

// verdict is the part of h that decides health.
func (h NodeHealth) verdict() [3]bool { return [3]bool{h.Missing, h.Behind, h.Silent} }

// health is what the report says at now of a member with evidence ps (nil:
// never heard from), against this node's tip.
func (n *Node) health(ps *peerStatus, now time.Duration) NodeHealth {
	var h NodeHealth
	if ps == nil {
		h.Missing = true
		return h
	}
	var local uint32
	if n.last != nil {
		local = n.last.LedgerSeq
	}
	h.LastSlot = ps.lastSlot
	h.LastClosed = ps.lastClosed
	h.Lag = int64(local) - int64(ps.lastClosed)
	h.HeardAgo = now - ps.lastHeard
	h.Behind = h.Lag >= behindLedgers
	h.Silent = h.HeardAgo > time.Duration(silentIntervals)*n.cfg.LedgerInterval
	return h
}

// SliceHealth summarizes one level of the quorum-set tree: how many of
// its members (validators or inner sets) are currently usable against its
// threshold.
type SliceHealth struct {
	Threshold int  `json:"threshold"`
	Size      int  `json:"size"`
	Healthy   int  `json:"healthy"`
	Satisfied bool `json:"satisfied"` // healthy ≥ threshold
}

// QuorumHealthReport is the GET /debug/quorum payload.
type QuorumHealthReport struct {
	Self     fba.NodeID    `json:"self"`
	LocalSeq uint32        `json:"local_seq"`
	Now      time.Duration `json:"now_ns"`
	// Nodes covers every member of the (transitive) quorum set except
	// self, sorted by ID.
	Nodes []NodeHealth `json:"nodes"`
	// MissingOrBehind lists the unhealthy validators by ID.
	MissingOrBehind []fba.NodeID `json:"missing_or_behind"`
	// Slices breaks health down per quorum-set level: index 0 is the top
	// slice, the rest are inner sets in declaration order.
	Slices []SliceHealth `json:"slices"`
	// QuorumAvailable is true when the healthy validators (plus self)
	// still satisfy a quorum slice — progress remains possible. Its
	// negation is exactly "the unhealthy validators are v-blocking for
	// this node" (§3.1: B meets every slice iff the rest holds none).
	QuorumAvailable bool `json:"quorum_available"`
}

// QuorumHealth computes the live quorum report from envelope evidence.
// Call with the node's event context held (horizon takes the sim lock).
func (n *Node) QuorumHealth() *QuorumHealthReport {
	rep := &QuorumHealthReport{Self: n.id, Now: n.net.Now()}
	if n.last != nil {
		rep.LocalSeq = n.last.LedgerSeq
	}

	ids := make([]fba.NodeID, 0, len(n.peersHealth))
	for id := range n.peersHealth {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	healthy := map[fba.NodeID]bool{n.id: true} // self is trivially healthy
	for _, id := range ids {
		h := n.health(n.peersHealth[id], rep.Now)
		h.Node = id
		if h.Healthy() {
			healthy[id] = true
		} else {
			rep.MissingOrBehind = append(rep.MissingOrBehind, id)
		}
		rep.Nodes = append(rep.Nodes, h)
	}

	isHealthy := func(id fba.NodeID) bool { return healthy[id] }
	rep.Slices = sliceHealth(&n.cfg.QSet, isHealthy)
	rep.QuorumAvailable = n.cfg.QSet.SatisfiedByFunc(isHealthy)
	return rep
}

// sliceHealth summarizes the top slice and each inner set against the
// currently healthy validators.
func sliceHealth(q *fba.QuorumSet, isHealthy func(fba.NodeID) bool) []SliceHealth {
	var out []SliceHealth
	var walk func(q *fba.QuorumSet) bool
	walk = func(q *fba.QuorumSet) bool {
		sh := SliceHealth{Threshold: q.Threshold, Size: q.Size()}
		idx := len(out)
		out = append(out, sh)
		for _, v := range q.Validators {
			if isHealthy(v) {
				sh.Healthy++
			}
		}
		for i := range q.InnerSets {
			if walk(&q.InnerSets[i]) {
				sh.Healthy++
			}
		}
		sh.Satisfied = sh.Healthy >= sh.Threshold
		out[idx] = sh
		return sh.Satisfied
	}
	walk(q)
	return out
}

// RefreshQuorumHealth computes the quorum report and publishes its
// verdict as the quorum_available gauge in one step — the horizon
// /debug/quorum handler serves its return value, so the endpoint and
// /metrics always agree.
func (n *Node) RefreshQuorumHealth() *QuorumHealthReport {
	if n.state == nil {
		return nil
	}
	rep := n.QuorumHealth()
	avail := 0.0
	if rep.QuorumAvailable {
		avail = 1
	}
	n.ins.quorumAvailable.Set(avail)
	return rep
}
