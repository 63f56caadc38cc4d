package ledger

import (
	"fmt"
	"sort"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Transaction model (paper §5.2): a source account, validity criteria
// (sequence number, optional time bounds), a memo, and one or more
// operations. Transactions are atomic: if any operation fails, none of
// them execute.

// TimeBounds optionally limits when a transaction may execute (§5.2: so a
// counterparty cannot "sit on the transaction for a year").
type TimeBounds struct {
	MinTime int64 // earliest close time, unix seconds; 0 = no bound
	MaxTime int64 // latest close time; 0 = no bound
}

// Contains reports whether closeTime falls inside the bounds.
func (tb *TimeBounds) Contains(closeTime int64) bool {
	if tb == nil {
		return true
	}
	if tb.MinTime != 0 && closeTime < tb.MinTime {
		return false
	}
	if tb.MaxTime != 0 && closeTime > tb.MaxTime {
		return false
	}
	return true
}

// DecoratedSignature pairs a signature with a hint identifying the
// signing key: the last four bytes of the ed25519 public key, as in
// stellar-core. The hint lets verification try the likely key first
// instead of brute-forcing every candidate; it is advisory only — a
// wrong or zero hint costs a fallback scan, never a rejection.
// Signatures (and therefore hints) are excluded from the transaction's
// signed payload and hash.
type DecoratedSignature struct {
	Hint [4]byte
	Sig  []byte
}

// Transaction is the unit of atomic ledger change.
type Transaction struct {
	Source     AccountID
	Fee        Amount // maximum total fee offered, in stroops
	SeqNum     uint64 // must be source's sequence number + 1
	TimeBounds *TimeBounds
	Memo       string
	Operations []Operation
	Signatures []DecoratedSignature

	// seal holds the canonical bytes and hash of a sealed transaction
	// (seal.go); once it is set the fields above are read-only.
	seal txSeal
}

// Operation pairs an operation body with an optional source account
// override (§5.2: "Each operation has a source account, which defaults to
// that of the overall transaction").
type Operation struct {
	Source AccountID // empty = transaction source
	Body   OpBody
}

// sourceOr returns the effective source of the operation.
func (op *Operation) sourceOr(txSource AccountID) AccountID {
	if op.Source != "" {
		return op.Source
	}
	return txSource
}

// ThresholdLevel categorizes operations for multisig (§5.2: higher signing
// weight for some operations such as SetOptions, lower for others such as
// AllowTrust).
type ThresholdLevel int

// Threshold levels.
const (
	ThresholdLow ThresholdLevel = iota
	ThresholdMedium
	ThresholdHigh
)

// OpBody is implemented by each of the Figure 4 operations.
type OpBody interface {
	// Type names the operation.
	Type() string
	// Threshold returns the multisig level the operation requires.
	Threshold() ThresholdLevel
	// Validate checks parameters that need no ledger state.
	Validate() error
	// Apply executes the operation against the journaled state.
	Apply(st *State, env *ApplyEnv, source AccountID) error
	// EncodeXDR writes the canonical encoding for hashing/signing.
	EncodeXDR(e *xdr.Encoder)
}

// ApplyEnv carries per-ledger context into operations.
type ApplyEnv struct {
	LedgerSeq uint32
	CloseTime int64
}

// EncodeXDR writes the signed payload portion of the transaction.
func (tx *Transaction) EncodeXDR(e *xdr.Encoder) {
	if s := &tx.seal; s.wire != nil {
		e.PutFixed(s.wire[:s.payloadLen])
		return
	}
	tx.encodePayload(e)
}

// encodePayload encodes the signed payload from the fields.
func (tx *Transaction) encodePayload(e *xdr.Encoder) {
	e.PutString(string(tx.Source))
	e.PutInt64(tx.Fee)
	e.PutUint64(tx.SeqNum)
	if tx.TimeBounds != nil {
		e.PutBool(true)
		e.PutInt64(tx.TimeBounds.MinTime)
		e.PutInt64(tx.TimeBounds.MaxTime)
	} else {
		e.PutBool(false)
	}
	e.PutString(tx.Memo)
	e.PutUint32(uint32(len(tx.Operations)))
	for i := range tx.Operations {
		op := &tx.Operations[i]
		e.PutString(string(op.Source))
		e.PutString(op.Body.Type())
		op.Body.EncodeXDR(e)
	}
}

// Hash returns the transaction's content hash bound to the network ID, the
// payload that signatures cover.
func (tx *Transaction) Hash(networkID stellarcrypto.Hash) stellarcrypto.Hash {
	if tx.seal.wire != nil {
		return tx.seal.sealedHash(networkID)
	}
	e := xdr.NewEncoder(256)
	e.PutFixed(networkID[:])
	tx.encodePayload(e)
	return stellarcrypto.HashBytes(e.Bytes())
}

// Sign appends a signature by kp over the transaction hash, decorated
// with the signing key's hint. Signing is editing: it drops any seal first,
// so the hash covers the fields as they are now.
func (tx *Transaction) Sign(networkID stellarcrypto.Hash, kp stellarcrypto.KeyPair) {
	tx.seal = txSeal{}
	h := tx.Hash(networkID)
	tx.Signatures = append(tx.Signatures, DecoratedSignature{
		Hint: kp.Public.Hint(),
		Sig:  kp.Secret.Sign(h[:]),
	})
}

// requiredLevels returns, per source account, the highest threshold level
// any of its operations requires. The transaction source additionally
// needs at least low threshold (for fee and sequence processing).
func (tx *Transaction) requiredLevels() map[AccountID]ThresholdLevel {
	req := map[AccountID]ThresholdLevel{tx.Source: ThresholdLow}
	for i := range tx.Operations {
		op := &tx.Operations[i]
		src := op.sourceOr(tx.Source)
		lvl := op.Body.Threshold()
		if cur, ok := req[src]; !ok || lvl > cur {
			req[src] = lvl
		}
	}
	return req
}

// thresholdValue extracts the weight an account demands for a level.
func thresholdValue(a *AccountEntry, lvl ThresholdLevel) uint8 {
	switch lvl {
	case ThresholdLow:
		return a.Thresholds.Low
	case ThresholdMedium:
		return a.Thresholds.Medium
	default:
		return a.Thresholds.High
	}
}

// sigCandidate is a decoded signing-key candidate for one account:
// strkey decode and hint derivation happen once per account, not once
// per (signature, candidate) pair.
type sigCandidate struct {
	id   AccountID
	pk   stellarcrypto.PublicKey
	hint [4]byte
	used bool
}

// CheckSignatures verifies the transaction's signatures against current
// account state without the rest of the validity checks — the horizon
// submit pipeline's signature pre-verification gate. It routes through
// the state's verification pipeline, so a signature verified here is a
// cache hit at nomination and apply time.
func (st *State) CheckSignatures(tx *Transaction, networkID stellarcrypto.Hash) error {
	return tx.checkSignatures(st, networkID)
}

// checkSignatures verifies that, for every source account the transaction
// touches, the attached signatures carry enough weight for the required
// threshold level (§5.1 multisig).
//
// Accounts are checked in sorted order: the error below names the first
// failing account and is stored in TxResult.Err, which feeds the results
// hash and thence the ledger header hash — map iteration order must not
// leak into consensus-visible bytes.
func (tx *Transaction) checkSignatures(st *State, networkID stellarcrypto.Hash) error {
	h := tx.Hash(networkID)
	req := tx.requiredLevels()
	accts := make([]AccountID, 0, len(req))
	for acct := range req {
		accts = append(accts, acct)
	}
	sort.Slice(accts, func(i, j int) bool { return accts[i] < accts[j] })
	for _, acct := range accts {
		lvl := req[acct]
		entry := st.Account(acct)
		if entry == nil {
			return fmt.Errorf("ledger: tx source account %s does not exist", acct)
		}
		needed := int(thresholdValue(entry, lvl))
		weight := 0
		// Candidate signing keys: the master key plus listed signers,
		// each decoded once. Undecodable keys simply never match, and a
		// key listed twice counts once.
		candidates := make([]sigCandidate, 0, 1+len(entry.Signers))
		seen := make(map[AccountID]bool, 1+len(entry.Signers))
		addCandidate := func(id AccountID) {
			if seen[id] {
				return
			}
			seen[id] = true
			pk, err := id.PublicKey()
			if err != nil {
				return
			}
			candidates = append(candidates, sigCandidate{id: id, pk: pk, hint: pk.Hint()})
		}
		addCandidate(entry.ID)
		for _, s := range entry.Signers {
			addCandidate(s.Key)
		}
		for si := range tx.Signatures {
			sig := &tx.Signatures[si]
			matched := -1
			// Hint pass: only candidates whose key ends in the hint.
			for ci := range candidates {
				c := &candidates[ci]
				if c.used || c.hint != sig.Hint {
					continue
				}
				if st.verifySig(c.pk, h[:], sig.Sig) {
					matched = ci
					break
				}
			}
			if matched < 0 {
				// Fallback full scan: a missing or wrong hint must cost
				// time, never correctness.
				for ci := range candidates {
					c := &candidates[ci]
					if c.used || c.hint == sig.Hint {
						continue
					}
					if st.verifySig(c.pk, h[:], sig.Sig) {
						matched = ci
						break
					}
				}
			}
			if matched >= 0 {
				candidates[matched].used = true
				weight += int(entry.signerWeight(candidates[matched].id))
			}
		}
		if weight < needed || weight == 0 {
			return fmt.Errorf("ledger: %s needs weight %d at level %d, signatures carry %d",
				acct, needed, lvl, weight)
		}
	}
	return nil
}

// NumOperations returns the operation count (the §5.3 nomination metric).
func (tx *Transaction) NumOperations() int { return len(tx.Operations) }

// MinFee returns the minimum acceptable fee for the transaction.
func (st *State) MinFee(tx *Transaction) Amount {
	return st.BaseFee * Amount(len(tx.Operations))
}
