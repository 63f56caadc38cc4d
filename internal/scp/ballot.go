package scp

import (
	"sort"
)

// Ballot protocol (paper §3.2.1, §3.2.4), following the statement
// compression of stellar-core and the SCP Internet-Draft. Nodes federated-
// vote on two families of abstract statements about each ballot ⟨n, x⟩:
//
//	prepare⟨n,x⟩ — no value other than x was or will be decided in any
//	               ballot ≤ n (equivalently: abort all lower ballots with
//	               different values);
//	commit⟨n,x⟩  — x is decided in ballot n.
//
// prepare⟨n,x⟩ contradicts commit⟨n′,x′⟩ when n ≥ n′ and x ≠ x′. The
// PREPARE/CONFIRM/EXTERNALIZE wire statements (msg.go) compress which of
// these statements a node votes for and accepts.

// --- statement predicates over the abstract votes ---

// stVotesOrAcceptsPrepared reports whether st pledges vote-or-accept of
// prepare(b).
func stVotesOrAcceptsPrepared(st *Statement, b Ballot) bool {
	switch st.Type {
	case StmtPrepare:
		// Votes prepare(st.Ballot), which covers all lower compatible
		// ballots.
		if b.LessAndCompatible(st.Ballot) {
			return true
		}
		return stAcceptsPrepared(st, b)
	case StmtConfirm:
		// Votes prepare(⟨∞, b.x⟩).
		return b.Compatible(st.Ballot)
	case StmtExternalize:
		return b.Compatible(st.Ballot)
	default:
		return false
	}
}

// stAcceptsPrepared reports whether st pledges acceptance of prepare(b).
func stAcceptsPrepared(st *Statement, b Ballot) bool {
	switch st.Type {
	case StmtPrepare:
		if st.Prepared != nil && b.LessAndCompatible(*st.Prepared) {
			return true
		}
		return st.PreparedPrime != nil && b.LessAndCompatible(*st.PreparedPrime)
	case StmtConfirm:
		prepared := Ballot{Counter: st.NPrepared, Value: st.Ballot.Value}
		return b.LessAndCompatible(prepared)
	case StmtExternalize:
		// Confirmed prepare(⟨∞, c.x⟩): accepts any compatible ballot.
		return b.Compatible(st.Ballot)
	default:
		return false
	}
}

// stVotesCommit reports whether st votes commit(⟨n, x⟩) for every n in
// [lo, hi] with value x.
func stVotesCommit(st *Statement, x Value, lo, hi uint32) bool {
	switch st.Type {
	case StmtPrepare:
		return st.NC != 0 && st.Ballot.Value.Equal(x) && st.NC <= lo && hi <= st.NH
	case StmtConfirm:
		// Votes commit(⟨n, b.x⟩) for all n ≥ nC.
		return st.Ballot.Value.Equal(x) && st.NC <= lo
	case StmtExternalize:
		return st.Ballot.Value.Equal(x) && st.Ballot.Counter <= lo
	default:
		return false
	}
}

// stAcceptsCommit reports whether st accepts commit(⟨n, x⟩) for every n in
// [lo, hi].
func stAcceptsCommit(st *Statement, x Value, lo, hi uint32) bool {
	switch st.Type {
	case StmtConfirm:
		return st.Ballot.Value.Equal(x) && st.NC <= lo && hi <= st.NH
	case StmtExternalize:
		// Accepts commit(⟨n, c.x⟩) for every n ≥ c.n.
		return st.Ballot.Value.Equal(x) && st.Ballot.Counter <= lo
	default:
		return false
	}
}

// --- envelope handling ---

func (s *Slot) processBallotEnvelope(env *Envelope) error {
	if !s.record(s.latestBallot, env) {
		return nil // stale
	}
	// Values carried in ballot statements must not be outright invalid.
	if s.node.driver.ValidateValue(s.index, env.Statement.Ballot.Value) == ValueInvalid {
		return nil
	}
	s.advanceBallot()
	return nil
}

// bumpFromNomination feeds the nomination composite into balloting:
// starting ballot ⟨1, composite⟩ if balloting has not begun, otherwise
// retaining the composite as the value for future counter bumps.
func (s *Slot) bumpFromNomination(composite Value) {
	if s.externalized {
		return
	}
	if s.b.Counter == 0 {
		s.bumpToBallot(Ballot{Counter: 1, Value: composite})
		s.advanceBallot()
	}
	// If balloting already started, the composite is still picked up by
	// nextBumpValue for future timeouts (unless overridden by h).
}

// nextBumpValue selects the value for a new ballot: the confirmed-prepared
// value takes priority (z), then the nomination composite.
func (s *Slot) nextBumpValue() Value {
	if s.z != nil {
		return s.z
	}
	return s.composite
}

// bumpToBallot moves the current ballot forward; counters never decrease.
func (s *Slot) bumpToBallot(nb Ballot) {
	if nb.Counter < s.b.Counter {
		return
	}
	if nb.Counter == s.b.Counter && s.b.Value != nil && nb.Value.Equal(s.b.Value) {
		return
	}
	s.b = nb
	if md := s.metrics(); md != nil {
		md.StartedBallot(s.index, nb)
	}
}

// advanceBallot is the protocol's main loop: repeatedly attempt every state
// advance until quiescent, then manage timers and emission.
func (s *Slot) advanceBallot() {
	if s.externalized {
		return
	}
	for i := 0; i < 1000; i++ { // bounded for defense; converges quickly
		progress := false
		if s.phase == PhasePrepare || s.phase == PhaseConfirm {
			if s.attemptAcceptPrepared() {
				progress = true
			}
		}
		if s.phase == PhasePrepare {
			if s.attemptConfirmPrepared() {
				progress = true
			}
		}
		if s.phase == PhasePrepare || s.phase == PhaseConfirm {
			if s.attemptAcceptCommit() {
				progress = true
			}
		}
		if s.phase == PhaseConfirm {
			if s.attemptConfirmCommit() {
				progress = true
			}
		}
		if s.phase != PhaseExternalize && s.attemptBump() {
			progress = true
		}
		// Emitting a new statement is itself progress: our own envelope
		// participates in the quorum predicates of the next iteration.
		if s.maybeEmitBallot() {
			progress = true
		}
		if !progress {
			break
		}
	}
	s.checkHeardFromQuorum()
}

// --- accept prepared ---

// prepareCandidates collects the ballots that could newly be accepted as
// prepared, from every statement we hold, in descending order.
func (s *Slot) prepareCandidates() []Ballot {
	var cands []Ballot
	add := func(b Ballot) {
		if b.Counter == 0 {
			return
		}
		cands = append(cands, b)
	}
	for _, env := range s.latestBallot {
		st := &env.Statement
		switch st.Type {
		case StmtPrepare:
			add(st.Ballot)
			if st.Prepared != nil {
				add(*st.Prepared)
			}
			if st.PreparedPrime != nil {
				add(*st.PreparedPrime)
			}
		case StmtConfirm:
			add(Ballot{Counter: st.NPrepared, Value: st.Ballot.Value})
			add(Ballot{Counter: InfCounter, Value: st.Ballot.Value})
		case StmtExternalize:
			add(Ballot{Counter: InfCounter, Value: st.Ballot.Value})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[j].Less(cands[i]) })
	// Dedupe.
	out := cands[:0]
	for i, c := range cands {
		if i == 0 || !c.Equal(cands[i-1]) {
			out = append(out, c)
		}
	}
	return out
}

// setPreparedWouldAdvance reports whether accepting prepare(cand) would
// change our (p, p′) pair.
func (s *Slot) setPreparedWouldAdvance(cand Ballot) bool {
	switch {
	case s.p == nil:
		return true
	case s.p.Less(cand):
		return true
	case cand.Less(*s.p) && !cand.Compatible(*s.p):
		return s.pPrime == nil || s.pPrime.Less(cand)
	default:
		return false
	}
}

func (s *Slot) setPrepared(cand Ballot) bool {
	if !s.setPreparedWouldAdvance(cand) {
		return false
	}
	switch {
	case s.p == nil:
		b := cand
		s.p = &b
	case s.p.Less(cand):
		if !s.p.Compatible(cand) {
			old := *s.p
			s.pPrime = &old
		}
		b := cand
		s.p = &b
	default: // lower and incompatible: new p′
		b := cand
		s.pPrime = &b
	}
	// If the newly accepted prepared ballot aborts our commit votes
	// (h ≤ p with a different value), stop voting commit.
	if s.c.Counter != 0 && s.h.Counter != 0 {
		abortedByP := s.p != nil && s.h.LessAndIncompatible(*s.p)
		abortedByPPrime := s.pPrime != nil && s.h.LessAndIncompatible(*s.pPrime)
		if abortedByP || abortedByPPrime {
			s.c = Ballot{}
		}
	}
	return true
}

func (s *Slot) attemptAcceptPrepared() bool {
	for _, cand := range s.prepareCandidates() {
		if s.phase == PhaseConfirm {
			// Value is locked to the commit value; and only a higher
			// prepared counter helps.
			if !cand.Compatible(s.c) || (s.p != nil && cand.LessAndCompatible(*s.p)) {
				continue
			}
		}
		if !s.setPreparedWouldAdvance(cand) {
			continue
		}
		voted := func(st *Statement) bool { return stVotesOrAcceptsPrepared(st, cand) }
		accepted := func(st *Statement) bool { return stAcceptsPrepared(st, cand) }
		if s.federatedAccept(s.latestBallot, voted, accepted) {
			return s.setPrepared(cand)
		}
	}
	return false
}

// --- confirm prepared (PREPARE phase only) ---

func (s *Slot) attemptConfirmPrepared() bool {
	if s.p == nil {
		return false
	}
	for _, cand := range s.prepareCandidates() {
		if s.h.Counter != 0 && cand.LessAndCompatible(s.h) {
			continue // no gain
		}
		if s.h.Counter != 0 && cand.Less(s.h) {
			break // descending order: nothing higher remains
		}
		accepted := func(st *Statement) bool { return stAcceptsPrepared(st, cand) }
		if !s.federatedRatify(s.latestBallot, accepted) {
			continue
		}
		s.h = cand
		s.z = cand.Value
		// Jump the current ballot up to h (ballot-synchronization: a
		// confirmed-prepared ballot is where the action is).
		if s.b.Counter < s.h.Counter || (s.b.Counter == s.h.Counter && !s.b.Compatible(s.h)) {
			s.bumpToBallot(Ballot{Counter: s.h.Counter, Value: s.h.Value})
		}
		// Begin voting commit if nothing we accepted aborts h.
		if s.c.Counter == 0 &&
			!(s.p != nil && s.h.LessAndIncompatible(*s.p)) &&
			!(s.pPrime != nil && s.h.LessAndIncompatible(*s.pPrime)) &&
			s.b.LessAndCompatible(s.h) {
			s.c = s.b
		}
		return true
	}
	return false
}

// --- accept commit ---

// commitBoundaries collects the distinct counters bounding any node's
// commit votes for value x.
func (s *Slot) commitBoundaries(x Value) []uint32 {
	set := map[uint32]struct{}{}
	for _, env := range s.latestBallot {
		st := &env.Statement
		if !st.Ballot.Value.Equal(x) {
			continue
		}
		switch st.Type {
		case StmtPrepare:
			if st.NC != 0 {
				set[st.NC] = struct{}{}
				set[st.NH] = struct{}{}
			}
		case StmtConfirm:
			set[st.NC] = struct{}{}
			set[st.NH] = struct{}{}
		case StmtExternalize:
			set[st.Ballot.Counter] = struct{}{}
			set[st.NH] = struct{}{}
		}
	}
	out := make([]uint32, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// findExtendedInterval finds the maximal interval [lo,hi] over the given
// boundary counters for which pred holds, extending downward from the
// highest workable boundary (stellar-core's algorithm).
func findExtendedInterval(boundaries []uint32, pred func(lo, hi uint32) bool) (lo, hi uint32, ok bool) {
	for i := len(boundaries) - 1; i >= 0; i-- {
		n := boundaries[i]
		var curLo, curHi uint32
		if !ok {
			curLo, curHi = n, n
		} else {
			curLo, curHi = n, hi
		}
		if pred(curLo, curHi) {
			lo, hi, ok = curLo, curHi, true
		} else if ok {
			break
		}
	}
	return lo, hi, ok
}

// commitValues returns the distinct values appearing in commit pledges.
func (s *Slot) commitValues() []Value {
	var vs ValueSet
	for _, env := range s.latestBallot {
		st := &env.Statement
		switch st.Type {
		case StmtPrepare:
			if st.NC != 0 {
				vs.Add(st.Ballot.Value)
			}
		case StmtConfirm, StmtExternalize:
			vs.Add(st.Ballot.Value)
		}
	}
	return vs.Values()
}

func (s *Slot) attemptAcceptCommit() bool {
	for _, x := range s.commitValues() {
		if s.phase == PhaseConfirm && !s.c.Value.Equal(x) {
			continue // value locked once in CONFIRM
		}
		boundaries := s.commitBoundaries(x)
		if len(boundaries) == 0 {
			continue
		}
		pred := func(lo, hi uint32) bool {
			voted := func(st *Statement) bool { return stVotesCommit(st, x, lo, hi) }
			accepted := func(st *Statement) bool { return stAcceptsCommit(st, x, lo, hi) }
			return s.federatedAccept(s.latestBallot, voted, accepted)
		}
		lo, hi, ok := findExtendedInterval(boundaries, pred)
		if !ok {
			continue
		}
		// Check this actually advances the state.
		if s.phase == PhaseConfirm && lo >= s.c.Counter && hi <= s.h.Counter {
			continue
		}
		if s.phase == PhaseConfirm {
			if lo < s.c.Counter {
				s.c = Ballot{Counter: lo, Value: x}
			}
			if hi > s.h.Counter {
				s.h = Ballot{Counter: hi, Value: x}
			}
		} else {
			s.phase = PhaseConfirm
			s.c = Ballot{Counter: lo, Value: x}
			s.h = Ballot{Counter: hi, Value: x}
			if md := s.metrics(); md != nil {
				md.AcceptedCommit(s.index, s.c)
			}
			// The value can no longer change: stop nomination rounds.
			s.stopNomination()
		}
		s.z = x
		// Accepting commit(⟨hi,x⟩) implies prepare(⟨hi,x⟩) was accepted.
		s.setPrepared(Ballot{Counter: hi, Value: x})
		// Move the current ballot to the commit value at counter ≥ hi.
		if s.b.Counter < hi || !s.b.Value.Equal(x) {
			n := s.b.Counter
			if n < hi {
				n = hi
			}
			s.bumpToBallot(Ballot{Counter: n, Value: x})
		}
		return true
	}
	return false
}

// --- confirm commit ---

func (s *Slot) attemptConfirmCommit() bool {
	if s.phase != PhaseConfirm {
		return false
	}
	x := s.c.Value
	boundaries := s.commitBoundaries(x)
	if len(boundaries) == 0 {
		return false
	}
	pred := func(lo, hi uint32) bool {
		accepted := func(st *Statement) bool { return stAcceptsCommit(st, x, lo, hi) }
		return s.federatedRatify(s.latestBallot, accepted)
	}
	lo, hi, ok := findExtendedInterval(boundaries, pred)
	if !ok {
		return false
	}
	s.phase = PhaseExternalize
	s.c = Ballot{Counter: lo, Value: x}
	s.h = Ballot{Counter: hi, Value: x}
	s.externalized = true
	s.stopNomination()
	s.cancelBallotTimer()
	s.maybeEmitBallot()
	s.node.driver.ValueExternalized(s.index, x)
	return true
}

// --- ballot synchronization (§3.2.4) ---

// attemptBump implements the v-blocking skip: if a v-blocking set of nodes
// is at a higher ballot counter, jump to the lowest counter that clears
// the condition, regardless of timers.
func (s *Slot) attemptBump() bool {
	if s.phase == PhaseExternalize {
		return false
	}
	val := s.nextBumpValue()
	if val == nil {
		return false // cannot vote without a value
	}
	bumped := false
	for {
		local := s.b.Counter
		aheadPred := func(st *Statement) bool { return st.workingBallotCounter() > local }
		if !s.isVBlockingFor(s.latestBallot, aheadPred) {
			break
		}
		// Lowest counter among the nodes ahead.
		target := InfCounter
		for _, env := range s.latestBallot {
			if c := env.Statement.workingBallotCounter(); c > local && c < target {
				target = c
			}
		}
		s.bumpToBallot(Ballot{Counter: target, Value: val})
		s.cancelBallotTimer()
		bumped = true
		if target == InfCounter {
			break
		}
	}
	return bumped
}

// checkHeardFromQuorum arms the ballot timer once a quorum is at our
// current ballot or later, so that stragglers are not left behind and the
// timeout grows with the counter (§3.2.4).
func (s *Slot) checkHeardFromQuorum() {
	if s.b.Counter == 0 || s.phase == PhaseExternalize {
		s.cancelBallotTimer()
		return
	}
	n := s.b.Counter
	pred := func(st *Statement) bool { return st.workingBallotCounter() >= n }
	if !s.isQuorumFor(s.latestBallot, pred) {
		s.cancelBallotTimer()
		return
	}
	if s.armedCounter == n {
		return
	}
	s.armedCounter = n
	s.node.driver.SetTimer(s.index, TimerBallot, s.node.driver.BallotTimeout(n), func() {
		s.ballotTimerFired(n)
	})
}

func (s *Slot) cancelBallotTimer() {
	if s.armedCounter != 0 {
		s.armedCounter = 0
		s.node.driver.SetTimer(s.index, TimerBallot, 0, nil)
	}
}

// ballotTimerFired abandons the current ballot and tries the next counter.
func (s *Slot) ballotTimerFired(counter uint32) {
	if s.externalized || s.b.Counter != counter {
		return
	}
	if md := s.metrics(); md != nil {
		md.Timeout(s.index, TimerBallot)
	}
	s.armedCounter = 0
	val := s.nextBumpValue()
	if val == nil {
		return
	}
	s.bumpToBallot(Ballot{Counter: s.b.Counter + 1, Value: val})
	s.advanceBallot()
}

// --- emission ---

func (s *Slot) buildBallotStatement() *Statement {
	if s.b.Counter == 0 {
		return nil
	}
	switch s.phase {
	case PhasePrepare:
		st := &Statement{
			Type:          StmtPrepare,
			Ballot:        s.b,
			Prepared:      s.p,
			PreparedPrime: s.pPrime,
		}
		if s.h.Counter != 0 {
			st.NH = s.h.Counter
			if s.c.Counter != 0 {
				st.NC = s.c.Counter
			}
		}
		return st
	case PhaseConfirm:
		np := uint32(0)
		if s.p != nil {
			np = s.p.Counter
		}
		return &Statement{
			Type:      StmtConfirm,
			Ballot:    s.b,
			NPrepared: np,
			NC:        s.c.Counter,
			NH:        s.h.Counter,
		}
	case PhaseExternalize:
		return &Statement{
			Type:   StmtExternalize,
			Ballot: s.c,
			NH:     s.h.Counter,
		}
	}
	return nil
}

func (s *Slot) maybeEmitBallot() bool {
	st := s.buildBallotStatement()
	if st == nil {
		return false
	}
	if err := st.sane(); err != nil {
		// An internal invariant is broken; do not gossip nonsense.
		panic("scp: built insane statement: " + err.Error())
	}
	if s.lastBallotStmt != nil && ballotStatementEqual(s.lastBallotStmt, st) {
		return false
	}
	s.lastBallotStmt = st
	s.emit(*st, s.latestBallot)
	return true
}

func ballotStatementEqual(a, b *Statement) bool {
	if a.Type != b.Type || !a.Ballot.Equal(b.Ballot) ||
		a.NPrepared != b.NPrepared || a.NC != b.NC || a.NH != b.NH {
		return false
	}
	eqOpt := func(x, y *Ballot) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		return x == nil || x.Equal(*y)
	}
	return eqOpt(a.Prepared, b.Prepared) && eqOpt(a.PreparedPrime, b.PreparedPrime)
}
