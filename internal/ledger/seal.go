package ledger

import (
	"bytes"
	"crypto/sha256"
	"slices"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Sealed transactions: identity and wire form as facts computed once, at
// the door, and carried with the transaction (DESIGN.md §3, "The life of a
// transaction").
//
// A transaction is sealed by whoever first holds its canonical bytes: a
// decoder, which keeps the bytes it was handed, or Seal, which the herder
// calls at admission and which encodes a hand-built transaction once. From
// then on Hash, EncodeXDR, EncodeSignedXDR and MarshalSignedXDR answer from
// those bytes, and the transaction is immutable: nothing may write to its
// fields. Code that has to edit one starts from a fresh Transaction value
// built from the exported fields; Sign, the one editing method, drops the
// seal itself.
//
// A transaction built by hand (tests, load generators, signing clients)
// is unsealed and computes everything on demand, so it stays freely mutable
// until it is admitted.
//
// The cached bytes stand in for a re-encode only because the encoding is
// canonical: the strict decoders accept exactly the byte strings EncodeXDR
// can produce (decode.go). TestDecodedBytesAreCanonical and the xdr fuzz
// target hold that per operation type.

// txSeal is the memo a sealed transaction carries; the zero value means
// unsealed.
type txSeal struct {
	// wire is the canonical envelope, EncodeSignedXDR's output, and
	// wire[:payloadLen] the signed payload, EncodeXDR's. Never written to.
	wire       []byte
	payloadLen int
	// hash is the content hash under networkID once hashed is set: decoders
	// do not know the network, so the first Hash call fills it in.
	hashed    bool
	networkID stellarcrypto.Hash
	hash      stellarcrypto.Hash
	// envHash is SHA-256 over wire once enveloped is set (EnvelopeHash,
	// txsetref.go): what a proposal's reference binds signatures with.
	enveloped bool
	envHash   stellarcrypto.Hash
}

// Seal fixes the transaction's wire form and identity — both hashes are
// computed here, at the door, so that naming the transaction in a proposal
// costs the trigger nothing — and returns its hash. The caller must not
// modify the transaction afterwards.
func (tx *Transaction) Seal(networkID stellarcrypto.Hash) stellarcrypto.Hash {
	if tx.seal.wire == nil {
		e := xdr.NewEncoder(256)
		tx.encodePayload(e)
		n := e.Len()
		tx.encodeSignatures(e)
		tx.seal = txSeal{wire: bytes.Clone(e.Bytes()), payloadLen: n}
	}
	tx.EnvelopeHash()
	return tx.Hash(networkID)
}

// hashPayload is the transaction content hash: SHA-256 over the network ID
// followed by the signed payload.
func hashPayload(networkID stellarcrypto.Hash, payload []byte) stellarcrypto.Hash {
	h := sha256.New()
	h.Write(networkID[:])
	h.Write(payload)
	var out stellarcrypto.Hash
	h.Sum(out[:0])
	return out
}

// sealedHash answers Hash for a sealed transaction, filling the memo on the
// first call. A second network ID is computed without disturbing it.
func (s *txSeal) sealedHash(networkID stellarcrypto.Hash) stellarcrypto.Hash {
	if s.hashed && s.networkID == networkID {
		return s.hash
	}
	h := hashPayload(networkID, s.wire[:s.payloadLen])
	if !s.hashed {
		s.networkID, s.hash, s.hashed = networkID, h, true
	}
	return h
}

// setSeal is a sealed transaction set's memo: its hash under networkID, and
// whether it lists a transaction twice.
type setSeal struct {
	sealed    bool
	hashed    bool
	networkID stellarcrypto.Hash
	hash      stellarcrypto.Hash
	duplicate bool
}

// Seal marks the set immutable — Txs and PrevLedgerHash must not change
// afterwards — which lets Hash be computed once, and returns that hash. The
// herder seals the set it proposes; DecodeTxSetXDR seals what it returns.
func (ts *TxSet) Seal(networkID stellarcrypto.Hash) stellarcrypto.Hash {
	ts.seal.sealed = true
	return ts.Hash(networkID)
}

// Intern returns the set with every transaction the caller already holds
// replaced by the caller's instance: held answers a transaction hash with
// that instance, or nil. An element is replaced only by a sealed instance
// whose envelope bytes equal its own — the hash does not cover signatures —
// so the result has the same hash, encoding and apply outcome as ts, and ts
// itself is returned when nothing was replaced. A node that receives a
// peer's proposal decoded from the wire holds nearly all of it in its pool
// already; interning lets the decoded duplicates be collected at once
// instead of living as long as the set does.
func (ts *TxSet) Intern(networkID stellarcrypto.Hash, held func(stellarcrypto.Hash) *Transaction) *TxSet {
	var txs []*Transaction // copied at the first replacement
	for i, tx := range ts.Txs {
		h := held(tx.Hash(networkID))
		if h == nil || h == tx || h.seal.wire == nil || !bytes.Equal(h.seal.wire, tx.seal.wire) {
			continue
		}
		if txs == nil {
			txs = slices.Clone(ts.Txs)
		}
		txs[i] = h
	}
	if txs == nil {
		return ts
	}
	// The transactions of a decoded set are windows into one buffer holding
	// every envelope of the set (DecodeTxSetXDR); the few that stay get their
	// own bytes, or each would keep all of it alive.
	for i, tx := range txs {
		if tx == ts.Txs[i] {
			own := *tx
			own.seal.wire = bytes.Clone(tx.seal.wire)
			txs[i] = &own
		}
	}
	return &TxSet{PrevLedgerHash: ts.PrevLedgerHash, Txs: txs, seal: ts.seal}
}
