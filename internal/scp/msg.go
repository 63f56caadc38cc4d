package scp

import (
	"fmt"

	"stellar/internal/fba"
	"stellar/internal/xdr"
)

// StatementType distinguishes the four SCP message kinds. One NOMINATE and
// three ballot-protocol statements mirror stellar-core's wire protocol; the
// ballot statements compress the federated-voting state of paper §3.2.1
// (which abstract prepare/commit statements the node votes for or accepts).
type StatementType uint8

// Statement kinds, in "newness" order for a fixed node and slot: a node's
// statement stream only ever moves forward through these types.
const (
	StmtNominate StatementType = iota + 1
	StmtPrepare
	StmtConfirm
	StmtExternalize
)

// String names the statement type.
func (t StatementType) String() string {
	switch t {
	case StmtNominate:
		return "NOMINATE"
	case StmtPrepare:
		return "PREPARE"
	case StmtConfirm:
		return "CONFIRM"
	case StmtExternalize:
		return "EXTERNALIZE"
	default:
		return fmt.Sprintf("StatementType(%d)", uint8(t))
	}
}

// Statement is the body of an SCP envelope. Field meanings by type:
//
//   - NOMINATE: Votes are values the node votes to nominate; Accepted are
//     values it has accepted as nominated (§3.2.2).
//
//   - PREPARE(b=Ballot, p=Prepared, p′=PreparedPrime, c.n=NC, h.n=NH):
//     the node votes prepare(b) — i.e. votes to abort every ballot less
//     than and incompatible with b; it has accepted prepare(p) and
//     prepare(p′); and if NC ≠ 0 it votes commit(⟨n, b.x⟩) for every
//     NC ≤ n ≤ NH.
//
//   - CONFIRM(b=Ballot, p.n=NPrepared, c.n=NC, h.n=NH): the node has
//     accepted commit(⟨n, b.x⟩) for NC ≤ n ≤ NH; it has accepted
//     prepare(⟨NPrepared, b.x⟩); it votes commit(⟨n, b.x⟩) for all n ≥ NC
//     and votes prepare(⟨∞, b.x⟩).
//
//   - EXTERNALIZE(c=Ballot, h.n=NH): the node has confirmed
//     commit(⟨n, c.x⟩) for c.n ≤ n ≤ NH; it accepts commit(⟨n, c.x⟩) for
//     every n ≥ c.n and has confirmed prepare(⟨∞, c.x⟩).
type Statement struct {
	Type StatementType

	// Nomination fields.
	Votes    []Value
	Accepted []Value

	// Ballot-protocol fields.
	Ballot        Ballot  // current ballot (PREPARE/CONFIRM); commit ballot (EXTERNALIZE)
	Prepared      *Ballot // p  (PREPARE)
	PreparedPrime *Ballot // p′ (PREPARE)
	NPrepared     uint32  // p.n (CONFIRM)
	NC            uint32  // c.n
	NH            uint32  // h.n
}

// workingBallotCounter returns the ballot counter this statement is "at"
// for ballot-synchronization purposes; CONFIRM and EXTERNALIZE count as
// committed to arbitrarily high counters (§3.2.4).
func (st *Statement) workingBallotCounter() uint32 {
	switch st.Type {
	case StmtPrepare:
		return st.Ballot.Counter
	case StmtConfirm:
		return st.Ballot.Counter
	case StmtExternalize:
		return InfCounter
	default:
		return 0
	}
}

// sane performs the structural checks of stellar-core's isStatementSane.
func (st *Statement) sane() error {
	switch st.Type {
	case StmtNominate:
		if len(st.Votes) == 0 && len(st.Accepted) == 0 {
			return fmt.Errorf("scp: empty nomination statement")
		}
		return nil
	case StmtPrepare:
		if st.Ballot.Counter == 0 {
			return fmt.Errorf("scp: prepare with zero ballot counter")
		}
		// p′ < p and incompatible.
		if st.Prepared != nil && st.PreparedPrime != nil {
			if !st.PreparedPrime.Less(*st.Prepared) || st.PreparedPrime.Compatible(*st.Prepared) {
				return fmt.Errorf("scp: preparedPrime %v not less-and-incompatible with prepared %v",
					st.PreparedPrime, st.Prepared)
			}
		}
		if st.PreparedPrime != nil && st.Prepared == nil {
			return fmt.Errorf("scp: preparedPrime without prepared")
		}
		if st.NH != 0 && st.NH > st.Ballot.Counter {
			return fmt.Errorf("scp: prepare nH %d > ballot counter %d", st.NH, st.Ballot.Counter)
		}
		if st.NC != 0 && st.NC > st.NH {
			return fmt.Errorf("scp: prepare commit interval [%d,%d] invalid", st.NC, st.NH)
		}
		return nil
	case StmtConfirm:
		if st.Ballot.Counter == 0 || st.NC == 0 || st.NC > st.NH || st.NH > st.Ballot.Counter {
			return fmt.Errorf("scp: confirm fields invalid (b.n=%d nC=%d nH=%d)",
				st.Ballot.Counter, st.NC, st.NH)
		}
		return nil
	case StmtExternalize:
		if st.Ballot.Counter == 0 || st.NH < st.Ballot.Counter {
			return fmt.Errorf("scp: externalize fields invalid (c.n=%d nH=%d)",
				st.Ballot.Counter, st.NH)
		}
		return nil
	default:
		return fmt.Errorf("scp: unknown statement type %d", st.Type)
	}
}

// String renders the statement compactly for logs and tests.
func (st *Statement) String() string {
	switch st.Type {
	case StmtNominate:
		return fmt.Sprintf("NOMINATE votes=%d accepted=%d", len(st.Votes), len(st.Accepted))
	case StmtPrepare:
		return fmt.Sprintf("PREPARE b=%v p=%v p'=%v c.n=%d h.n=%d",
			st.Ballot, st.Prepared, st.PreparedPrime, st.NC, st.NH)
	case StmtConfirm:
		return fmt.Sprintf("CONFIRM b=%v p.n=%d c.n=%d h.n=%d",
			st.Ballot, st.NPrepared, st.NC, st.NH)
	case StmtExternalize:
		return fmt.Sprintf("EXTERNALIZE c=%v h.n=%d", st.Ballot, st.NH)
	default:
		return "UNKNOWN"
	}
}

// Envelope is a signed SCP statement from one node about one slot. As the
// paper requires (§3.1), every envelope carries the sender's quorum set so
// that quorums can be discovered from messages alone.
type Envelope struct {
	Node fba.NodeID
	Slot uint64
	// Seq orders a node's statements within a slot; receivers keep only
	// the newest statement per node.
	Seq       uint64
	QSet      fba.QuorumSet
	Statement Statement
	Signature []byte

	// seal keeps the bytes the envelope was signed or decoded as
	// (seal.go); the zero value means unsealed.
	seal envSeal
}

// SigningPayload returns the canonical bytes covered by the signature. A
// sealed envelope answers with a window into its kept bytes, which the
// caller must not modify.
func (e *Envelope) SigningPayload() []byte {
	if s := &e.seal; s.wire != nil {
		return s.wire[:s.payloadLen:s.payloadLen]
	}
	enc := xdr.NewEncoder(256)
	e.encodePayload(enc)
	return enc.Bytes()
}

// WireSize is the envelope's encoded size in bytes, the transport's frame
// size hint and the simulator's bandwidth accounting.
func (e *Envelope) WireSize() int {
	if e.seal.wire != nil {
		return len(e.seal.wire)
	}
	return len(e.MarshalXDR())
}

func encodeStatement(enc *xdr.Encoder, st *Statement) {
	enc.PutUint32(uint32(st.Type))
	enc.PutUint32(uint32(len(st.Votes)))
	for _, v := range st.Votes {
		enc.PutBytes(v)
	}
	enc.PutUint32(uint32(len(st.Accepted)))
	for _, v := range st.Accepted {
		enc.PutBytes(v)
	}
	encodeBallot(enc, st.Ballot)
	encodeOptBallot(enc, st.Prepared)
	encodeOptBallot(enc, st.PreparedPrime)
	enc.PutUint32(st.NPrepared)
	enc.PutUint32(st.NC)
	enc.PutUint32(st.NH)
}

func encodeBallot(enc *xdr.Encoder, b Ballot) {
	enc.PutUint32(b.Counter)
	enc.PutBytes(b.Value)
}

func encodeOptBallot(enc *xdr.Encoder, b *Ballot) {
	if b == nil {
		enc.PutBool(false)
		return
	}
	enc.PutBool(true)
	encodeBallot(enc, *b)
}

// String renders the envelope for logs.
func (e *Envelope) String() string {
	return fmt.Sprintf("env{%s slot=%d seq=%d %s}", e.Node, e.Slot, e.Seq, e.Statement.String())
}
