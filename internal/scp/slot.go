package scp

import (
	"fmt"

	"stellar/internal/fba"
)

// Phase is the ballot-protocol phase of a slot.
type Phase int

// Ballot-protocol phases (paper §3.2.1): prepare, commit ("confirm" in
// stellar-core's terminology, since the commit statements are being
// confirmed), and externalize once the value is decided.
const (
	PhasePrepare Phase = iota
	PhaseConfirm
	PhaseExternalize
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePrepare:
		return "PREPARE"
	case PhaseConfirm:
		return "CONFIRM"
	case PhaseExternalize:
		return "EXTERNALIZE"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Slot runs one instance of SCP: nomination plus balloting for a single
// slot index (one ledger in Stellar, §5.3).
type Slot struct {
	node  *Node
	index uint64

	// Latest statement per node, kept separately for the nomination and
	// ballot sub-protocols (a node participates in both concurrently).
	latestNom    map[fba.NodeID]*Envelope
	latestBallot map[fba.NodeID]*Envelope
	// qsets collects the quorum sets learned from envelopes (including
	// our own); quorum evaluation uses these (paper §3.1).
	qsets fba.QuorumSets

	// Nomination state (§3.2.2).
	nomStarted   bool
	nomRound     int
	leaders      fba.NodeSet
	proposal     Value    // value we introduce if we are a leader
	votes        ValueSet // X: values we voted to nominate
	acceptedNom  ValueSet // Y: values we accepted as nominated
	candidates   ValueSet // Z: values confirmed nominated
	composite    Value    // CombineCandidates(Z)
	lastNomStmt  *Statement
	nomTimerLive bool

	// Ballot state (§3.2.1). b is the current ballot; p ≥ p′ are the two
	// highest accepted-prepared ballots (mutually incompatible); h is the
	// highest confirmed-prepared (or accepted-commit upper bound in
	// CONFIRM phase); c is the lowest ballot we vote (or accept) commit
	// for; z overrides the value used when bumping counters.
	phase          Phase
	b              Ballot
	p, pPrime      *Ballot
	h, c           Ballot
	z              Value
	lastBallotStmt *Statement
	armedCounter   uint32 // ballot counter the timer is armed for (0 = none)
	externalized   bool

	seq uint64 // our per-slot statement sequence number
}

func newSlot(node *Node, index uint64) *Slot {
	s := &Slot{
		node:         node,
		index:        index,
		latestNom:    make(map[fba.NodeID]*Envelope),
		latestBallot: make(map[fba.NodeID]*Envelope),
		qsets:        make(fba.QuorumSets),
		leaders:      make(fba.NodeSet),
	}
	q := node.qset // copy
	s.qsets[node.self] = &q
	return s
}

// Candidates returns the confirmed-nominated values.
func (s *Slot) Candidates() []Value { return s.candidates.Values() }

// LatestEnvelopes returns this node's newest nomination and ballot
// envelopes for re-broadcast to lagging peers (the fix for the §6 outage:
// nodes must keep helping peers complete previous ledgers).
func (s *Slot) LatestEnvelopes() []*Envelope {
	var out []*Envelope
	if e := s.latestNom[s.node.self]; e != nil {
		out = append(out, e)
	}
	if e := s.latestBallot[s.node.self]; e != nil {
		out = append(out, e)
	}
	return out
}

// processEnvelope validates and dispatches a peer's envelope.
func (s *Slot) processEnvelope(env *Envelope) error {
	if env.Slot != s.index {
		return fmt.Errorf("scp: envelope for slot %d handed to slot %d", env.Slot, s.index)
	}
	if err := env.Statement.sane(); err != nil {
		return err
	}
	if err := env.QSet.Validate(); err != nil {
		return err
	}
	if !s.node.driver.VerifyEnvelope(env) {
		return fmt.Errorf("scp: bad signature on envelope from %s", env.Node)
	}
	qset := env.QSet
	s.qsets[env.Node] = &qset

	if env.Statement.Type == StmtNominate {
		return s.processNomination(env)
	}
	return s.processBallotEnvelope(env)
}

// record stores env as the node's latest statement in the given map if it
// is newer than what we hold; it reports whether it was stored.
func (s *Slot) record(m map[fba.NodeID]*Envelope, env *Envelope) bool {
	if old := m[env.Node]; old != nil && old.Seq >= env.Seq {
		return false
	}
	m[env.Node] = env
	return true
}

// --- Federated voting machinery (paper §3.2.3) ---
//
// All predicates run over the latest statements per node. A quorum must
// satisfy the local node's quorum set and, recursively, the quorum set each
// member declared in its envelope; a v-blocking set need only intersect the
// local node's slices.

// isQuorumFor reports whether the nodes whose latest statement in m
// satisfies pred contain a quorum to which the local node belongs.
func (s *Slot) isQuorumFor(m map[fba.NodeID]*Envelope, pred func(*Statement) bool) bool {
	members := make(fba.NodeSet)
	for id, env := range m {
		if pred(&env.Statement) {
			members.Add(id)
		}
	}
	// Greatest fixpoint: drop nodes whose own quorum set is not satisfied
	// by the remaining members.
	for {
		removed := false
		for id := range members {
			q := s.qsets[id]
			if q == nil || !q.SatisfiedByFunc(members.Has) {
				members.Remove(id)
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	return s.node.qset.SatisfiedByFunc(members.Has)
}

// isVBlockingFor reports whether the nodes whose latest statement satisfies
// pred form a v-blocking set for the local node.
func (s *Slot) isVBlockingFor(m map[fba.NodeID]*Envelope, pred func(*Statement) bool) bool {
	return s.node.qset.BlockedByFunc(func(id fba.NodeID) bool {
		env := m[id]
		return env != nil && pred(&env.Statement)
	})
}

// federatedAccept implements the two accept cases of Figure 1: a quorum
// voting-or-accepting the statement, or a v-blocking set accepting it
// (overruling our own contrary votes).
func (s *Slot) federatedAccept(m map[fba.NodeID]*Envelope, voted, accepted func(*Statement) bool) bool {
	if s.isVBlockingFor(m, accepted) {
		return true
	}
	return s.isQuorumFor(m, func(st *Statement) bool { return voted(st) || accepted(st) })
}

// federatedRatify implements confirmation: a quorum unanimously accepting.
func (s *Slot) federatedRatify(m map[fba.NodeID]*Envelope, accepted func(*Statement) bool) bool {
	return s.isQuorumFor(m, accepted)
}

// emit signs and broadcasts a statement, recording it as our own latest
// message so that it participates in our quorum evaluations.
func (s *Slot) emit(st Statement, m map[fba.NodeID]*Envelope) {
	s.seq++
	env := &Envelope{
		Node:      s.node.self,
		Slot:      s.index,
		Seq:       s.seq,
		QSet:      s.node.qset,
		Statement: st,
	}
	s.node.driver.SignEnvelope(env)
	m[s.node.self] = env
	s.node.driver.EmitEnvelope(env)
}

func (s *Slot) metrics() MetricsDriver {
	md, _ := s.node.driver.(MetricsDriver)
	return md
}
