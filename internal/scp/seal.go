package scp

import (
	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Sealed envelopes: an envelope's wire form and identity computed once and
// carried with it, as a ledger.Transaction carries its own (ledger/seal.go).
//
// An envelope is sealed by whoever first holds its canonical bytes: Sign,
// which encodes the signing payload once to sign it, or DecodeEnvelopeXDR,
// which keeps the bytes it was handed. From then on SigningPayload, WireSize,
// EncodeXDR and ID answer from those bytes, and the envelope is immutable:
// code that edits a signed envelope's fields signs it again, which reseals
// it. An envelope built by hand with a Signature already in place (tests, a
// forging adversary) is unsealed and computes everything on demand.
//
// The kept bytes stand in for a re-encode only because the codec is
// canonical: DecodeEnvelopeXDR accepts exactly the byte strings EncodeXDR
// writes (FuzzFrameDecode and FuzzQuorumSetDecodeRoundTrip hold that).

// envSeal is the memo a sealed envelope carries; the zero value means
// unsealed.
type envSeal struct {
	// wire is the envelope's canonical encoding, EncodeXDR's output, and
	// wire[:payloadLen] its signing payload. Never written to.
	wire       []byte
	payloadLen int
	// id is SHA-256 over wire once hashed is set.
	hashed bool
	id     stellarcrypto.Hash
}

// Sign signs the envelope's signing payload with sign, sets Signature, and
// seals the envelope — its identity included, which the overlay marks seen
// as the envelope is flooded. The caller must not modify it afterwards.
func (e *Envelope) Sign(sign func(payload []byte) []byte) {
	enc := xdr.NewEncoder(256)
	e.encodePayload(enc)
	n := enc.Len()
	e.Signature = sign(enc.Bytes()[:n:n])
	enc.PutBytes(e.Signature)
	wire := enc.Bytes()
	e.seal = envSeal{wire: wire, payloadLen: n, hashed: true, id: stellarcrypto.HashBytes(wire)}
}

// ID is SHA-256 over the envelope's complete encoding, signature included:
// its flood identity. A copy whose signature differs by one bit has another
// ID, so it can never shadow the genuine envelope in a seen set.
func (e *Envelope) ID() stellarcrypto.Hash {
	s := &e.seal
	if s.wire == nil {
		return stellarcrypto.HashBytes(e.MarshalXDR())
	}
	if !s.hashed {
		s.id, s.hashed = stellarcrypto.HashBytes(s.wire), true
	}
	return s.id
}

// KeepID records id as the ID of an envelope just decoded, for a caller
// that hashed exactly the bytes it was decoded from before decoding them
// (the transport does, to ask the overlay's seen set first): id must be
// SHA-256 over those bytes. An unsealed envelope ignores it.
func (e *Envelope) KeepID(id stellarcrypto.Hash) {
	if s := &e.seal; s.wire != nil {
		s.id, s.hashed = id, true
	}
}

// encodePayload appends the fields the signature covers.
func (e *Envelope) encodePayload(enc *xdr.Encoder) {
	enc.PutString(string(e.Node))
	enc.PutUint64(e.Slot)
	enc.PutUint64(e.Seq)
	e.QSet.EncodeXDR(enc)
	encodeStatement(enc, &e.Statement)
}
