package scp

import "time"

// ValidationLevel grades a value's application-level validity.
type ValidationLevel int

const (
	// ValueInvalid values are dropped and never voted for.
	ValueInvalid ValidationLevel = iota
	// ValueMaybeValid values may be echoed and accepted via federated
	// voting but are not voted for directly (e.g. a close time the local
	// clock considers slightly in the future).
	ValueMaybeValid
	// ValueFullyValid values may be voted for.
	ValueFullyValid
)

// TimerKind distinguishes the per-slot timers SCP maintains.
type TimerKind int

const (
	// TimerNomination drives nomination round escalation (§3.2.2).
	TimerNomination TimerKind = iota
	// TimerBallot drives ballot timeout and counter bumping (§3.2.4).
	TimerBallot
)

// Driver connects SCP to the application (the herder in Stellar's
// architecture, §5). All callbacks run synchronously on the caller's
// goroutine; SCP itself spawns no goroutines.
type Driver interface {
	// ValidateValue grades a candidate value for the slot.
	ValidateValue(slot uint64, v Value) ValidationLevel

	// CombineCandidates composes the confirmed-nominated values into a
	// single composite value (§5.3: Stellar takes the transaction set
	// with the most operations, the union of upgrades, the highest close
	// time). It must be deterministic across nodes.
	CombineCandidates(slot uint64, candidates []Value) Value

	// EmitEnvelope broadcasts the node's new statement to its peers. The
	// envelope has already been signed.
	EmitEnvelope(env *Envelope)

	// SignEnvelope attaches the node's signature.
	SignEnvelope(env *Envelope)

	// VerifyEnvelope checks a peer's signature.
	VerifyEnvelope(env *Envelope) bool

	// SetTimer (re)arms the given per-slot timer to fire cb after delay.
	// A nil cb cancels the timer.
	SetTimer(slot uint64, kind TimerKind, delay time.Duration, cb func())

	// NominationTimeout returns the duration of nomination round n≥1.
	NominationTimeout(round int) time.Duration

	// BallotTimeout returns the timeout for ballot counter n≥1; the
	// paper requires it to grow with n (§3.2.4).
	BallotTimeout(counter uint32) time.Duration

	// ValueExternalized announces that the slot decided v. Called once
	// per slot.
	ValueExternalized(slot uint64, v Value)
}

// MetricsDriver is an optional extension of Driver for instrumentation;
// the experiment harness implements it to reproduce §7's measurements.
type MetricsDriver interface {
	// StartedBallot is called whenever the node moves to a new ballot.
	StartedBallot(slot uint64, b Ballot)
	// AcceptedCommit is called when the node first accepts a commit.
	AcceptedCommit(slot uint64, b Ballot)
	// Timeout is called when a nomination or ballot timer fires.
	Timeout(slot uint64, kind TimerKind)
	// NominationConfirmed is called when the first candidate value is
	// confirmed nominated.
	NominationConfirmed(slot uint64)
	// NominationRoundStarted is called when nomination (re)starts:
	// round 1 at the ledger trigger, then once per timeout escalation.
	NominationRoundStarted(slot uint64, round int)
}

// DefaultNominationTimeout mirrors stellar-core: round n lasts 1s + n·1s.
func DefaultNominationTimeout(round int) time.Duration {
	return time.Second + time.Duration(round)*time.Second
}

// DefaultBallotTimeout mirrors stellar-core's linear policy: ballot n
// times out after (1 + n) seconds.
func DefaultBallotTimeout(counter uint32) time.Duration {
	return time.Second + time.Duration(counter)*time.Second
}
