package scp

import "stellar/internal/fba"

// Nomination protocol (paper §3.2.2): federated voting on "nominate x"
// statements, none of which contradict each other. Leaders introduce
// values; other nodes echo their leaders' votes. Once any nominate
// statement is confirmed the node stops voting for new values, which keeps
// the set of candidates finite; the confirmed candidates are combined
// deterministically into the composite value handed to the ballot protocol.

// startNomination begins nominating proposal for this slot. The herder
// calls this at the ledger trigger (§5.3).
func (s *Slot) startNomination(proposal Value) {
	if s.nomStarted || s.externalized {
		return
	}
	s.nomStarted = true
	s.nomRound = 1
	s.proposal = proposal
	if md := s.metrics(); md != nil {
		md.NominationRoundStarted(s.index, s.nomRound)
	}
	s.updateRoundLeaders()
	s.takeLeaderVotes()
	s.maybeEmitNomination()
	s.armNominationTimer()
}

// updateRoundLeaders adds the current round's leader to the (growing)
// leader set (§3.2.5).
func (s *Slot) updateRoundLeaders() {
	leader := roundLeader(s.node.networkID, s.index, s.nomRound, &s.node.qset, s.node.self)
	s.leaders.Add(leader)
}

// takeLeaderVotes votes for our own proposal if we are a leader, and echoes
// the votes of every current leader from their latest nomination envelopes.
func (s *Slot) takeLeaderVotes() {
	if s.leaders.Has(s.node.self) && s.proposal != nil {
		if s.node.driver.ValidateValue(s.index, s.proposal) == ValueFullyValid {
			s.votes.Add(s.proposal)
		}
	}
	for leader := range s.leaders {
		env := s.latestNom[leader]
		if env == nil {
			continue
		}
		s.echoVotes(&env.Statement)
	}
}

// echoVotes copies valid values from a leader's statement into our votes.
func (s *Slot) echoVotes(st *Statement) {
	for _, v := range st.Votes {
		if s.canVoteNominate(v) {
			s.votes.Add(v)
		}
	}
	for _, v := range st.Accepted {
		if s.canVoteNominate(v) {
			s.votes.Add(v)
		}
	}
}

// canVoteNominate applies the paper's rule that a node stops voting to
// nominate new values once it has confirmed any nominate statement, and
// only votes for fully valid values.
func (s *Slot) canVoteNominate(v Value) bool {
	if s.candidates.Len() > 0 {
		return false
	}
	return s.node.driver.ValidateValue(s.index, v) == ValueFullyValid
}

func (s *Slot) armNominationTimer() {
	if s.candidates.Len() > 0 || s.externalized || s.phase != PhasePrepare {
		return
	}
	s.nomTimerLive = true
	round := s.nomRound
	s.node.driver.SetTimer(s.index, TimerNomination, s.node.driver.NominationTimeout(round), func() {
		s.nominationTimerFired()
	})
}

// stopNomination halts nomination rounds; called once the ballot protocol
// has accepted a commit (the value can no longer change).
func (s *Slot) stopNomination() {
	if s.nomTimerLive {
		s.nomTimerLive = false
		s.node.driver.SetTimer(s.index, TimerNomination, 0, nil)
	}
}

// nominationTimerFired escalates to the next nomination round, expanding
// the leader set to work around failed leaders.
func (s *Slot) nominationTimerFired() {
	if !s.nomStarted || s.candidates.Len() > 0 || s.externalized {
		return
	}
	s.nomRound++
	if md := s.metrics(); md != nil {
		md.Timeout(s.index, TimerNomination)
		md.NominationRoundStarted(s.index, s.nomRound)
	}
	s.updateRoundLeaders()
	s.takeLeaderVotes()
	s.reprocessNomination()
	s.maybeEmitNomination()
	s.armNominationTimer()
}

// processNomination handles a peer's NOMINATE envelope.
func (s *Slot) processNomination(env *Envelope) error {
	if !s.record(s.latestNom, env) {
		return nil // stale
	}
	// Echo leader votes even before our own nomination has started;
	// stellar-core does the same so that laggards converge.
	if s.leaders.Has(env.Node) {
		s.echoVotes(&env.Statement)
	}
	s.reprocessNomination()
	s.maybeEmitNomination()
	return nil
}

// reprocessNomination runs federated voting over every value present in
// any node's nomination statement, promoting values to accepted and then
// to confirmed candidates.
func (s *Slot) reprocessNomination() {
	// Collect the universe of values in play.
	var universe ValueSet
	for _, env := range s.latestNom {
		for _, v := range env.Statement.Votes {
			universe.Add(v)
		}
		for _, v := range env.Statement.Accepted {
			universe.Add(v)
		}
	}
	for _, v := range s.votes.Values() {
		universe.Add(v)
	}

	for changed := true; changed; {
		changed = false
		for _, v := range universe.Values() {
			if !s.acceptedNom.Has(v) && s.attemptAcceptNominate(v) {
				changed = true
			}
			if s.acceptedNom.Has(v) && !s.candidates.Has(v) && s.attemptConfirmNominate(v) {
				changed = true
			}
		}
	}
}

func (s *Slot) attemptAcceptNominate(v Value) bool {
	// Accepting requires the value to be at least maybe-valid.
	if s.node.driver.ValidateValue(s.index, v) == ValueInvalid {
		return false
	}
	voted := func(st *Statement) bool { return statementVotesNominate(st, v) }
	accepted := func(st *Statement) bool { return statementAcceptsNominate(st, v) }
	if !s.federatedAccept(s.latestNom, voted, accepted) {
		return false
	}
	s.acceptedNom.Add(v)
	// Accepting implies voting (our accept message carries it in the
	// accepted list; adding to votes mirrors stellar-core).
	s.votes.Add(v)
	return true
}

func (s *Slot) attemptConfirmNominate(v Value) bool {
	accepted := func(st *Statement) bool { return statementAcceptsNominate(st, v) }
	if !s.federatedRatify(s.latestNom, accepted) {
		return false
	}
	first := s.candidates.Len() == 0
	s.candidates.Add(v)
	if first {
		if md := s.metrics(); md != nil {
			md.NominationConfirmed(s.index)
		}
	}
	s.updateComposite()
	return true
}

// updateComposite recombines the candidates and feeds the ballot protocol
// (starting it at ballot 1 if it has not begun).
func (s *Slot) updateComposite() {
	comp := s.node.driver.CombineCandidates(s.index, s.candidates.Values())
	if comp == nil {
		return
	}
	s.composite = comp
	s.bumpFromNomination(comp)
}

func statementVotesNominate(st *Statement, v Value) bool {
	if st.Type != StmtNominate {
		return false
	}
	for _, w := range st.Votes {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

func statementAcceptsNominate(st *Statement, v Value) bool {
	if st.Type != StmtNominate {
		return false
	}
	for _, w := range st.Accepted {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

// maybeEmitNomination broadcasts our nomination state if it changed.
func (s *Slot) maybeEmitNomination() {
	if s.votes.Len() == 0 && s.acceptedNom.Len() == 0 {
		return
	}
	st := Statement{
		Type:     StmtNominate,
		Votes:    append([]Value(nil), s.votes.Values()...),
		Accepted: append([]Value(nil), s.acceptedNom.Values()...),
	}
	if s.lastNomStmt != nil && nominationEqual(s.lastNomStmt, &st) {
		return
	}
	s.lastNomStmt = &st
	s.emit(st, s.latestNom)
	// Our own statement may complete a quorum; reprocess.
	s.reprocessNominationOnce()
}

// reprocessNominationOnce re-runs promotion after our own emission without
// recursing into another emission cycle unless something changed.
func (s *Slot) reprocessNominationOnce() {
	before := s.acceptedNom.Len() + s.candidates.Len()
	s.reprocessNomination()
	if s.acceptedNom.Len()+s.candidates.Len() != before {
		s.maybeEmitNomination()
	}
}

func nominationEqual(a, b *Statement) bool {
	if len(a.Votes) != len(b.Votes) || len(a.Accepted) != len(b.Accepted) {
		return false
	}
	for i := range a.Votes {
		if !a.Votes[i].Equal(b.Votes[i]) {
			return false
		}
	}
	for i := range a.Accepted {
		if !a.Accepted[i].Equal(b.Accepted[i]) {
			return false
		}
	}
	return true
}

// RetryEcho re-examines leaders' nomination votes for values that were
// previously unvotable (e.g. a transaction set that had not yet arrived,
// §5.3) and re-runs federated voting. The herder calls this when new
// application data (a tx set) arrives that may turn a MaybeValid value
// fully valid.
func (s *Slot) RetryEcho() {
	if !s.nomStarted || s.externalized {
		return
	}
	s.takeLeaderVotes()
	s.reprocessNomination()
	s.maybeEmitNomination()
}

// LeaderForRound exposes round-leader computation for tests and the
// experiment harness (§7.2's nomination-timeout analysis).
func LeaderForRound(networkID [32]byte, slot uint64, round int, qset *fba.QuorumSet, self fba.NodeID) fba.NodeID {
	return roundLeader(networkID, slot, round, qset, self)
}
