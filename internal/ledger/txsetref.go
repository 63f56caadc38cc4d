package ledger

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// A proposal travels by reference (DESIGN.md §5, decision record). The consensus value names a
// transaction set by hash (§5.3), and nearly every transaction of a peer's
// proposal already sits in the receiver's pool, so what a proposer floods is
// not the set but what a receiver needs to rebuild it: the previous-ledger
// hash and the transaction hashes in proposal order — from which the set
// hash follows — plus one digest over the transactions' envelope hashes.
//
// The digest is what makes rebuilding safe. A transaction hash covers the
// signed payload, not the signatures, so two envelopes with different
// signature bytes share it; a receiver that rebuilt the set from such a copy
// would hold a set with the right hash and the wrong bytes, apply it with a
// different outcome if its copy's signatures do not verify, and archive a
// file that differs from its peers'. Resolve therefore returns a set only
// when every listed transaction is held and the held envelopes hash to the
// proposer's digest; on anything else the receiver fetches the whole set.

// TxSetRef names a transaction set without carrying it.
type TxSetRef struct {
	PrevLedgerHash stellarcrypto.Hash
	// TxHashes lists the set's transactions in the proposer's order, which
	// is the order the set encodes and archives in.
	TxHashes []stellarcrypto.Hash
	// EnvelopeDigest is SHA-256 over the transactions' envelope hashes
	// (Transaction.EnvelopeHash) in the same order.
	EnvelopeDigest stellarcrypto.Hash

	// Memo of SetHash and WellFormed: both need the hashes sorted.
	summed    bool
	setHash   stellarcrypto.Hash
	duplicate bool
}

// EnvelopeHash is SHA-256 over the transaction's complete envelope —
// payload and signatures — and so tells apart what Hash cannot: two copies
// of one transaction signed differently. It does not depend on the network.
// A sealed transaction answers from its seal. It is also a flooded
// transaction's dedup id in the overlay.
func (tx *Transaction) EnvelopeHash() stellarcrypto.Hash {
	s := &tx.seal
	if s.wire == nil {
		return stellarcrypto.HashBytes(tx.MarshalSignedXDR())
	}
	if !s.enveloped {
		s.envHash, s.enveloped = stellarcrypto.HashBytes(s.wire), true
	}
	return s.envHash
}

// KeepEnvelopeHash records h as the EnvelopeHash of a transaction just
// decoded, for a caller that hashed exactly the bytes it was decoded from
// before decoding them (the transport does, to ask the overlay's seen set
// first): h must be SHA-256 over those bytes. An unsealed transaction
// ignores it.
func (tx *Transaction) KeepEnvelopeHash(h stellarcrypto.Hash) {
	if s := &tx.seal; s.wire != nil {
		s.envHash, s.enveloped = h, true
	}
}

// envelopeDigest folds envelope hashes, in order, into one.
func envelopeDigest(txs []*Transaction) stellarcrypto.Hash {
	d := sha256.New()
	for _, tx := range txs {
		h := tx.EnvelopeHash()
		d.Write(h[:])
	}
	var out stellarcrypto.Hash
	d.Sum(out[:0])
	return out
}

// setHash is the transaction-set content hash: the previous ledger hash
// followed by the transaction hashes in ascending order. It sorts hashes in
// place and also reports whether two of them are equal.
func setHash(prev stellarcrypto.Hash, hashes []stellarcrypto.Hash) (h stellarcrypto.Hash, duplicate bool) {
	slices.SortFunc(hashes, func(a, b stellarcrypto.Hash) int { return bytes.Compare(a[:], b[:]) })
	d := sha256.New()
	d.Write(prev[:])
	for i := range hashes {
		d.Write(hashes[i][:])
		duplicate = duplicate || i > 0 && hashes[i] == hashes[i-1]
	}
	d.Sum(h[:0])
	return h, duplicate
}

// Ref returns the reference a proposer floods in place of the set.
func (ts *TxSet) Ref(networkID stellarcrypto.Hash) *TxSetRef {
	r := &TxSetRef{
		PrevLedgerHash: ts.PrevLedgerHash,
		TxHashes:       make([]stellarcrypto.Hash, len(ts.Txs)),
		EnvelopeDigest: envelopeDigest(ts.Txs),
	}
	for i, tx := range ts.Txs {
		r.TxHashes[i] = tx.Hash(networkID)
	}
	r.setHash, r.duplicate = ts.sum(networkID)
	r.summed = true
	return r
}

// sum fills the memo.
func (r *TxSetRef) sum() {
	if !r.summed {
		r.setHash, r.duplicate = setHash(r.PrevLedgerHash, slices.Clone(r.TxHashes))
		r.summed = true
	}
}

// SetHash is TxSet.Hash of the set the reference names, derived from the
// listed hashes alone: headers, values and archives name sets exactly as
// they did when whole sets were flooded.
func (r *TxSetRef) SetHash() stellarcrypto.Hash {
	r.sum()
	return r.setHash
}

// WellFormed reports whether the reference could have come from TxSet.Ref
// of a set a node would propose: within the size a decoder accepts, and no
// transaction listed twice.
func (r *TxSetRef) WellFormed() bool {
	r.sum()
	return len(r.TxHashes) <= maxDecodeTxSetSize && !r.duplicate
}

// Resolve rebuilds the named set from transactions the caller already
// holds: held answers a transaction hash with the caller's sealed instance,
// or nil. The result is nil unless every listed transaction is held and the
// held envelopes are byte for byte the proposer's (the digest matches); a
// non-nil result has the hash SetHash names and encodes to exactly the bytes
// of the proposer's set.
func (r *TxSetRef) Resolve(networkID stellarcrypto.Hash, held func(stellarcrypto.Hash) *Transaction) *TxSet {
	if !r.WellFormed() {
		return nil
	}
	txs := make([]*Transaction, len(r.TxHashes))
	for i, h := range r.TxHashes {
		tx := held(h)
		if tx == nil || tx.seal.wire == nil || tx.Hash(networkID) != h {
			return nil
		}
		txs[i] = tx
	}
	if envelopeDigest(txs) != r.EnvelopeDigest {
		return nil
	}
	return &TxSet{PrevLedgerHash: r.PrevLedgerHash, Txs: txs,
		seal: setSeal{sealed: true, hashed: true, networkID: networkID, hash: r.setHash}}
}

// EncodeXDR writes the reference's wire form: previous ledger hash, count,
// the hashes, the digest.
func (r *TxSetRef) EncodeXDR(e *xdr.Encoder) {
	e.Grow(32 + 4 + 32*len(r.TxHashes) + 32)
	e.PutFixed(r.PrevLedgerHash[:])
	e.PutUint32(uint32(len(r.TxHashes)))
	for i := range r.TxHashes {
		e.PutFixed(r.TxHashes[i][:])
	}
	e.PutFixed(r.EnvelopeDigest[:])
}

// DecodeTxSetRefXDR reads one reference written by TxSetRef.EncodeXDR,
// leaving the decoder positioned after it. It accepts only well-formed
// references, and allocates for the hashes only once the input is known to
// hold them.
func DecodeTxSetRefXDR(d *xdr.Decoder) (*TxSetRef, error) {
	r := &TxSetRef{}
	if err := d.FixedInto(r.PrevLedgerHash[:]); err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxDecodeTxSetSize {
		return nil, fmt.Errorf("ledger: transaction set reference with %d transactions", n)
	}
	if int(n)*32+32 > d.Remaining() {
		return nil, xdr.ErrTruncated
	}
	r.TxHashes = make([]stellarcrypto.Hash, n)
	for i := range r.TxHashes {
		if err := d.FixedInto(r.TxHashes[i][:]); err != nil {
			return nil, err
		}
	}
	if err := d.FixedInto(r.EnvelopeDigest[:]); err != nil {
		return nil, err
	}
	if !r.WellFormed() {
		return nil, fmt.Errorf("ledger: transaction set reference lists a transaction twice")
	}
	return r, nil
}
