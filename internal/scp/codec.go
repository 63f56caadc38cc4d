package scp

import (
	"fmt"

	"stellar/internal/fba"
	"stellar/internal/xdr"
)

// Wire codec for SCP envelopes. The simulator passes envelopes between
// nodes as pointers; a real transport (internal/transport) must put them
// on the wire, so envelopes get a canonical binary form: the signing
// payload's fields followed by the signature. Decoding is strict — every
// count is bounded by the remaining input before anything is allocated,
// because these bytes arrive from authenticated but untrusted peers.

// maxStatementValues caps the votes/accepted lists of one statement. A
// nomination realistically carries a handful of candidate values; 4096
// leaves room without letting a hostile peer declare a billion.
const maxStatementValues = 4096

// EncodeXDR appends the envelope's canonical wire encoding; a sealed
// envelope appends the bytes it keeps.
func (e *Envelope) EncodeXDR(enc *xdr.Encoder) {
	if e.seal.wire != nil {
		enc.PutFixed(e.seal.wire)
		return
	}
	e.encodePayload(enc)
	enc.PutBytes(e.Signature)
}

// MarshalXDR encodes the envelope into a fresh slice.
func (e *Envelope) MarshalXDR() []byte { return xdr.Marshal(e) }

// DecodeEnvelopeXDR reads one envelope written by EncodeXDR and seals it
// over the bytes it was read from. The seal aliases the decoder's input,
// which the caller must not modify afterwards.
func DecodeEnvelopeXDR(d *xdr.Decoder) (*Envelope, error) {
	start := d.Offset()
	node, err := d.String()
	if err != nil {
		return nil, err
	}
	slot, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	seq, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	qset, err := fba.DecodeQuorumSetXDR(d)
	if err != nil {
		return nil, err
	}
	st, err := decodeStatement(d)
	if err != nil {
		return nil, err
	}
	payloadLen := d.Offset() - start
	sig, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	return &Envelope{
		Node:      fba.NodeID(node),
		Slot:      slot,
		Seq:       seq,
		QSet:      qset,
		Statement: *st,
		Signature: sig,
		seal:      envSeal{wire: d.Since(start), payloadLen: payloadLen},
	}, nil
}

func decodeStatement(d *xdr.Decoder) (*Statement, error) {
	typ, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if typ < uint32(StmtNominate) || typ > uint32(StmtExternalize) {
		return nil, fmt.Errorf("scp: decode: unknown statement type %d", typ)
	}
	st := &Statement{Type: StatementType(typ)}
	if st.Votes, err = decodeValues(d); err != nil {
		return nil, err
	}
	if st.Accepted, err = decodeValues(d); err != nil {
		return nil, err
	}
	if st.Ballot, err = decodeBallot(d); err != nil {
		return nil, err
	}
	if st.Prepared, err = decodeOptBallot(d); err != nil {
		return nil, err
	}
	if st.PreparedPrime, err = decodeOptBallot(d); err != nil {
		return nil, err
	}
	if st.NPrepared, err = d.Uint32(); err != nil {
		return nil, err
	}
	if st.NC, err = d.Uint32(); err != nil {
		return nil, err
	}
	if st.NH, err = d.Uint32(); err != nil {
		return nil, err
	}
	return st, nil
}

func decodeValues(d *xdr.Decoder) ([]Value, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxStatementValues {
		return nil, fmt.Errorf("scp: decode: %d values in statement", n)
	}
	// Each value costs at least its 4-byte length prefix, so a count the
	// remaining input cannot possibly hold is rejected before allocating.
	if int(n)*4 > d.Remaining() {
		return nil, xdr.ErrTruncated
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Value, n)
	for i := range out {
		b, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		out[i] = Value(b)
	}
	return out, nil
}

func decodeBallot(d *xdr.Decoder) (Ballot, error) {
	counter, err := d.Uint32()
	if err != nil {
		return Ballot{}, err
	}
	v, err := d.Bytes()
	if err != nil {
		return Ballot{}, err
	}
	return Ballot{Counter: counter, Value: Value(v)}, nil
}

func decodeOptBallot(d *xdr.Decoder) (*Ballot, error) {
	present, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	b, err := decodeBallot(d)
	if err != nil {
		return nil, err
	}
	return &b, nil
}
