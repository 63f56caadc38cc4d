package scp

import (
	"fmt"
	"sort"

	"stellar/internal/fba"
	"stellar/internal/stellarcrypto"
)

// Node is one SCP participant: it holds the local quorum set and a state
// machine per slot. Nodes are single-threaded; the caller (herder or
// simulator) serializes Receive, Nominate, and timer callbacks.
type Node struct {
	self      fba.NodeID
	qset      fba.QuorumSet
	networkID stellarcrypto.Hash
	driver    Driver
	slots     map[uint64]*Slot
}

// NewNode creates an SCP node. networkID seeds leader selection so that
// distinct networks (or test instances) elect independently.
func NewNode(self fba.NodeID, qset fba.QuorumSet, networkID stellarcrypto.Hash, driver Driver) (*Node, error) {
	if err := qset.Validate(); err != nil {
		return nil, fmt.Errorf("scp: invalid local quorum set: %w", err)
	}
	if driver == nil {
		return nil, fmt.Errorf("scp: nil driver")
	}
	return &Node{
		self:      self,
		qset:      qset,
		networkID: networkID,
		driver:    driver,
		slots:     make(map[uint64]*Slot),
	}, nil
}

// ID returns the node's identity.
func (n *Node) ID() fba.NodeID { return n.self }

// LocalQuorumSet returns the node's configured quorum set.
func (n *Node) LocalQuorumSet() fba.QuorumSet { return n.qset }

// SetQuorumSet replaces the local quorum set; FBA nodes may reconfigure
// unilaterally at any time (§3.1.1). The new set applies to existing and
// future slots.
func (n *Node) SetQuorumSet(q fba.QuorumSet) error {
	if err := q.Validate(); err != nil {
		return err
	}
	n.qset = q
	for _, s := range n.slots {
		copied := q
		s.qsets[n.self] = &copied
	}
	return nil
}

// Slot returns the state machine for the given slot, creating it if new.
func (n *Node) Slot(i uint64) *Slot {
	s, ok := n.slots[i]
	if !ok {
		s = newSlot(n, i)
		n.slots[i] = s
	}
	return s
}

// HasSlot reports whether slot i has any state.
func (n *Node) HasSlot(i uint64) bool { _, ok := n.slots[i]; return ok }

// Nominate starts (or re-triggers) nomination of value for the slot.
func (n *Node) Nominate(slot uint64, value Value) {
	n.Slot(slot).startNomination(value)
}

// Receive processes a peer's envelope.
func (n *Node) Receive(env *Envelope) error {
	if env == nil {
		return fmt.Errorf("scp: nil envelope")
	}
	if env.Node == n.self {
		return nil // our own broadcast echoed back
	}
	return n.Slot(env.Slot).processEnvelope(env)
}

// RetryEcho re-runs nomination echo on a slot after new application data
// arrived (see Slot.RetryEcho). No-op if the slot has no state.
func (n *Node) RetryEcho(slot uint64) {
	if s, ok := n.slots[slot]; ok {
		s.RetryEcho()
	}
}

// PurgeBelow discards state for slots < keep, bounding memory like
// stellar-core's slot garbage collection.
func (n *Node) PurgeBelow(keep uint64) {
	for i := range n.slots {
		if i < keep {
			delete(n.slots, i)
		}
	}
}

// SlotIndices returns the indices of live slots in ascending order.
func (n *Node) SlotIndices() []uint64 {
	out := make([]uint64, 0, len(n.slots))
	for i := range n.slots {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
